//! The planned, trail-based homomorphism matcher over boxed atoms.
//!
//! Chase termination (§4 of the paper), Σ-equivalence and sound C&B (§5),
//! dependency implication and satisfaction, query isomorphism, and bag
//! containment all bottom out in homomorphism search between conjunctions
//! of atoms. Two compiled plans share one design — dense variable slots,
//! flat argument ops, an undo trail — and one atom-ordering heuristic,
//! and split the callers by how long a target lives:
//!
//! * [`MatchPlan`] (this module) searches boxed [`Atom`] slices directly.
//!   It serves the **one-shot** callers — containment mappings
//!   ([`crate::containment_mapping`]), bag containment, and dependency
//!   satisfaction and implication — which search a target once or a few
//!   times and then drop it. Loading such a target into a
//!   [`crate::TermArena`] first costs more than the search it would speed
//!   up.
//! * [`crate::ArenaPlan`] searches `u32` term ids in columnar tables. It
//!   serves the chase engines, whose target lives for a whole run and is
//!   searched at every step; only there does interning once pay off.
//!
//! ## Plan format
//!
//! [`MatchPlan::new`]/[`MatchPlan::optimized`] compile a source conjunction
//! once into a [`MatchPlan`]:
//!
//! * every source variable is numbered into a **dense slot** (`u32`), in
//!   first-occurrence order along the plan;
//! * every atom becomes a `PlanStep`: its predicate/arity key plus one
//!   `ArgOp` per argument — `Const(t)` (target argument must equal `t`) or
//!   `Slot(s)` (bind or compare slot `s`);
//! * `new` keeps the original atom order, so the emission sequence is
//!   bit-identical to the naive backtracker's ([`mod@reference`]) — required
//!   wherever "the first homomorphism" is semantically load-bearing;
//!   `optimized` greedily reorders atoms by selectivity and connectivity
//!   (constants and already-bound slots first, atoms joined to the bound
//!   prefix before cartesian detours) — safe for every existence-only or
//!   set-valued use.
//!
//! ## Trail invariants
//!
//! A search runs on a `Frame`: a slot array plus an **undo trail**.
//! Binding a slot pushes its index on the trail; backtracking pops the
//! trail back to the entry mark. No per-candidate or per-emission
//! `HashMap` clone ever happens; a complete match is read directly off
//! the slot array through [`Match`], and only materialized into a
//! [`Subst`] when the caller keeps it. Invariants:
//!
//! * `bound[s]` ⇔ slot `s` was seeded or trail-bound; seeded slots are
//!   never on the trail (they survive backtracking across the whole
//!   search);
//! * every trail entry is popped exactly once, by the frame that pushed
//!   it — emit callbacks observe a fully bound frame but must not hold
//!   onto it past their return.
//!
//! The naive backtracker survives unchanged as [`mod@reference`], the
//! differential-testing oracle (`tests/tests/matcher_differential.rs`).

use crate::atom::{Atom, Predicate};
use crate::subst::Subst;
use crate::term::{Term, Var};
use std::collections::HashMap;

/// Target atoms bucketed by predicate/arity: for each key, the indices
/// into the target slice holding an atom with that key, ascending.
///
/// Callers that search the same target several times build one of these
/// and pass it to every search instead of letting each search rebuild it.
pub type Buckets = HashMap<(Predicate, usize), Vec<usize>>;

/// Builds the bucket map for a target slice.
pub fn bucket_atoms(atoms: &[Atom]) -> Buckets {
    let mut m: Buckets = HashMap::new();
    for (i, a) in atoms.iter().enumerate() {
        m.entry(a.key()).or_default().push(i);
    }
    m
}

/// A borrowed view of the search target: slot-stable atom storage plus
/// the live buckets over it. Dead slots (the chase engine's deduplicated
/// duplicates) are simply absent from the buckets.
#[derive(Copy, Clone)]
pub struct Target<'a> {
    /// The atom storage candidates index into.
    pub atoms: &'a [Atom],
    /// The `(predicate, arity)` buckets over the live atoms.
    pub buckets: &'a Buckets,
}

impl<'a> Target<'a> {
    /// A target over `atoms` with caller-maintained `buckets`.
    pub fn new(atoms: &'a [Atom], buckets: &'a Buckets) -> Target<'a> {
        Target { atoms, buckets }
    }
}

/// How a slot is seeded before the search starts.
pub enum Seed<'a> {
    /// No pre-bindings.
    Empty,
    /// Pre-bind every plan slot whose variable the substitution maps;
    /// bindings of variables outside the plan ride along into
    /// [`Match::to_subst`] (matching the historical `extend_homomorphism`
    /// contract).
    Subst(&'a Subst),
    /// Pre-bind from a lookup closure (used by the chase engine to seed a
    /// conclusion-extension search straight from a premise frame, with no
    /// intermediate `Subst`). Out-of-plan bindings are *not* carried into
    /// [`Match::to_subst`].
    Fn(&'a dyn Fn(Var) -> Option<Term>),
}

/// One argument of a plan step.
#[derive(Copy, Clone, Debug)]
enum ArgOp {
    /// The target argument must equal this term exactly.
    Const(Term),
    /// Bind (first occurrence on this path) or compare (already bound)
    /// the dense slot.
    Slot(u32),
}

/// One atom of the compiled plan. Its argument ops live in the plan's
/// flat `ops` arena at `[ops_start, ops_start + key.1)` — one allocation
/// for the whole plan instead of one per atom (plan compilation sits on
/// small-query hot paths like containment and isomorphism checks).
#[derive(Debug)]
struct PlanStep {
    /// Predicate/arity bucket key.
    key: (Predicate, usize),
    /// Offset of this step's ops in the plan's arena.
    ops_start: u32,
}

/// A compiled source conjunction: atoms in search order, variables
/// numbered into dense slots. Reusable across any number of searches and
/// targets; see the module docs for the format.
pub struct MatchPlan {
    steps: Vec<PlanStep>,
    /// Flat argument-op arena, indexed per step via `ops_start`/arity.
    ops: Vec<ArgOp>,
    /// Slot → source variable. Slot lookup is a linear scan: source
    /// conjunctions carry at most a few dozen variables, where scanning
    /// interned ids beats hashing.
    vars: Vec<Var>,
}

impl MatchPlan {
    fn step_ops(&self, step: &PlanStep) -> &[ArgOp] {
        let start = step.ops_start as usize;
        &self.ops[start..start + step.key.1]
    }
}

impl MatchPlan {
    /// Compiles `src` keeping the original atom order. Emission order is
    /// identical to the naive backtracker's ([`mod@reference`]): use this
    /// wherever "first match" must agree with the historical semantics.
    pub fn new(src: &[Atom]) -> MatchPlan {
        MatchPlan::compile(src, (0..src.len()).collect())
    }

    /// Compiles `src` with atoms greedily reordered by selectivity and
    /// connectivity: prefer atoms whose arguments are constants or slots
    /// already bound by the prefix (or by `bound` — variables the caller
    /// will seed), break ties toward fewer fresh variables and then the
    /// original position (stability). Only the *order* changes — the
    /// emitted match set is the same as [`MatchPlan::new`]'s.
    pub fn optimized(src: &[Atom], bound: &[Var]) -> MatchPlan {
        MatchPlan::compile(src, greedy_order(src, bound, |_| 0))
    }

    /// [`MatchPlan::optimized`] with live cardinality statistics
    /// (Selinger-lite): among atoms the static heuristic scores equally,
    /// scan the one with the fewest live candidates first. `card` maps a
    /// `(predicate, arity)` key to its current candidate count — pass the
    /// target's bucket sizes. Only the *order* changes, so this is safe
    /// exactly where `optimized` is (existence-only / set-valued
    /// searches).
    pub fn optimized_with_stats(
        src: &[Atom],
        bound: &[Var],
        card: &dyn Fn(&(Predicate, usize)) -> usize,
    ) -> MatchPlan {
        MatchPlan::compile(src, greedy_order(src, bound, |i| card(&src[i].key())))
    }

    fn compile(src: &[Atom], order: Vec<usize>) -> MatchPlan {
        let mut vars: Vec<Var> = Vec::new();
        let mut steps = Vec::with_capacity(order.len());
        let mut ops: Vec<ArgOp> = Vec::with_capacity(src.iter().map(Atom::arity).sum());
        for &i in &order {
            let atom = &src[i];
            let ops_start = u32::try_from(ops.len()).expect("ops overflow");
            for t in &atom.args {
                ops.push(match t {
                    Term::Const(_) => ArgOp::Const(*t),
                    Term::Var(v) => {
                        let slot = match vars.iter().position(|w| w == v) {
                            Some(s) => s,
                            None => {
                                vars.push(*v);
                                vars.len() - 1
                            }
                        };
                        ArgOp::Slot(u32::try_from(slot).expect("slot overflow"))
                    }
                });
            }
            steps.push(PlanStep { key: atom.key(), ops_start });
        }
        MatchPlan { steps, ops, vars }
    }

    /// The slot of `v`, if `v` occurs in the source conjunction.
    pub fn slot(&self, v: Var) -> Option<u32> {
        self.vars.iter().position(|w| *w == v).map(|s| s as u32)
    }

    /// Enumerates matches of the plan against `target`, extending `seed`.
    /// `emit` observes each complete match; returning `false` stops the
    /// search. Returns `false` iff `emit` stopped it.
    pub fn search(
        &self,
        target: Target<'_>,
        seed: &Seed<'_>,
        emit: &mut dyn FnMut(&Match<'_>) -> bool,
    ) -> bool {
        let mut frame = Frame::new(self, seed);
        self.run_step(&mut frame, target, 0, seed, emit)
    }

    /// First match extending `seed`, if any, materialized as a [`Subst`].
    pub fn first_match(&self, target: Target<'_>, seed: &Seed<'_>) -> Option<Subst> {
        let mut found = None;
        self.search(target, seed, &mut |m| {
            found = Some(m.to_subst());
            false
        });
        found
    }

    /// Is there any match extending `seed`?
    pub fn has_match(&self, target: Target<'_>, seed: &Seed<'_>) -> bool {
        let mut hit = false;
        self.search(target, seed, &mut |_| {
            hit = true;
            false
        });
        hit
    }

    /// Depth-first search from `frame` at plan step `depth`.
    fn run_step(
        &self,
        frame: &mut Frame,
        target: Target<'_>,
        depth: usize,
        seed: &Seed<'_>,
        emit: &mut dyn FnMut(&Match<'_>) -> bool,
    ) -> bool {
        if depth == self.steps.len() {
            return emit(&Match { plan: self, slots: &frame.slots, seed });
        }
        let step = &self.steps[depth];
        let cands: &[usize] = target.buckets.get(&step.key).map_or(&[], Vec::as_slice);
        for &j in cands {
            let mark = frame.trail.len();
            if frame.try_bind(self.step_ops(step), &target.atoms[j]) {
                let keep_going = self.run_step(frame, target, depth + 1, seed, emit);
                frame.undo_to(mark);
                if !keep_going {
                    return false;
                }
            } else {
                frame.undo_to(mark);
            }
        }
        true
    }
}

/// The greedy atom ordering both [`MatchPlan::optimized`] and
/// [`crate::ArenaPlan::optimized`] compile with: maximize `pinned*8 -
/// fresh` (constants and already-bound slots first, fewer fresh variables
/// on ties), break remaining ties toward the smaller candidate set per
/// `card` (which maps a source atom index to its live cardinality; a
/// constant disables it), then the original position (stability).
pub(crate) fn greedy_order(
    src: &[Atom],
    bound: &[Var],
    card: impl Fn(usize) -> usize,
) -> Vec<usize> {
    let mut order: Vec<usize> = Vec::with_capacity(src.len());
    let mut placed = vec![false; src.len()];
    let mut known: Vec<Var> = bound.to_vec(); // a handful of variables
    for _ in 0..src.len() {
        let mut best: Option<(i64, usize, usize)> = None; // (score, card, idx)
        for (i, atom) in src.iter().enumerate() {
            if placed[i] {
                continue;
            }
            let mut pinned = 0i64; // constants + already-known vars
            let mut fresh = 0i64; // distinct new vars introduced
            for (j, t) in atom.args.iter().enumerate() {
                match t {
                    Term::Const(_) => pinned += 1,
                    // A repeat within the atom is pinned by its first use.
                    Term::Var(v) if known.contains(v) || atom.args[..j].contains(t) => pinned += 1,
                    Term::Var(_) => fresh += 1,
                }
            }
            // Higher is better; full ties resolve to the lowest
            // original index because the scan is ascending and the
            // comparisons are strict.
            let score = pinned * 8 - fresh;
            let c = card(i);
            if best.is_none_or(|(s, bc, _)| score > s || (score == s && c < bc)) {
                best = Some((score, c, i));
            }
        }
        let (_, _, i) = best.expect("unplaced atom remains");
        placed[i] = true;
        known.extend(src[i].vars());
        order.push(i);
    }
    order
}

/// The reusable search state: dense slot array plus undo trail. See the
/// module docs for the invariants.
struct Frame {
    /// Slot values; meaningful only where `bound`.
    slots: Vec<Term>,
    /// Which slots hold a binding (seeded or trail-recorded).
    bound: Vec<bool>,
    /// Slots bound since the search started, in binding order.
    trail: Vec<u32>,
}

impl Frame {
    fn new(plan: &MatchPlan, seed: &Seed<'_>) -> Frame {
        let n = plan.vars.len();
        // Unbound slots carry their own variable as a placeholder, so a
        // fully seeded frame doubles as the identity on untouched vars.
        let mut slots: Vec<Term> = plan.vars.iter().map(|v| Term::Var(*v)).collect();
        let mut bound = vec![false; n];
        match seed {
            Seed::Empty => {}
            Seed::Subst(s) => {
                for (slot, v) in plan.vars.iter().enumerate() {
                    if let Some(t) = s.get(*v) {
                        slots[slot] = *t;
                        bound[slot] = true;
                    }
                }
            }
            Seed::Fn(f) => {
                for (slot, v) in plan.vars.iter().enumerate() {
                    if let Some(t) = f(*v) {
                        slots[slot] = t;
                        bound[slot] = true;
                    }
                }
            }
        }
        Frame { slots, bound, trail: Vec::with_capacity(n) }
    }

    /// Unifies the step's ops against the target atom, recording new
    /// bindings on the trail. On `false` the caller must `undo_to` its
    /// entry mark (partial bindings may have been trailed).
    fn try_bind(&mut self, ops: &[ArgOp], atom: &Atom) -> bool {
        debug_assert_eq!(ops.len(), atom.args.len());
        for (op, dt) in ops.iter().zip(atom.args.iter()) {
            match op {
                ArgOp::Const(c) => {
                    if dt != c {
                        return false;
                    }
                }
                ArgOp::Slot(s) => {
                    let s = *s as usize;
                    if self.bound[s] {
                        if self.slots[s] != *dt {
                            return false;
                        }
                    } else {
                        self.slots[s] = *dt;
                        self.bound[s] = true;
                        self.trail.push(s as u32);
                    }
                }
            }
        }
        true
    }

    /// Pops trail entries back to `mark`. The stale slot values are left
    /// in place — a slot is only ever read where `bound`, and emit
    /// callbacks observe frames with every plan slot bound.
    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let s = self.trail.pop().expect("trail underflow") as usize;
            self.bound[s] = false;
        }
    }
}

/// A complete match, viewed directly over the frame's slot array. Valid
/// only for the duration of the emit callback.
pub struct Match<'a> {
    plan: &'a MatchPlan,
    slots: &'a [Term],
    seed: &'a Seed<'a>,
}

impl Match<'_> {
    /// The slot values in slot order — all bound at emission time. Two
    /// matches with equal slot slices are the same variable binding, so
    /// this slice is the allocation-free dedup key.
    pub fn slots(&self) -> &[Term] {
        self.slots
    }

    /// The image of `v`, if `v` has a slot in the plan.
    pub fn get(&self, v: Var) -> Option<Term> {
        self.plan.slot(v).map(|s| self.slots[s as usize])
    }

    /// Applies the match to a term (unbound/foreign variables map to
    /// themselves, like [`Subst::apply_term`]).
    pub fn apply_term(&self, t: &Term) -> Term {
        match t {
            Term::Var(v) => self.get(*v).unwrap_or(*t),
            Term::Const(_) => *t,
        }
    }

    /// Applies the match to an atom.
    pub fn apply_atom(&self, a: &Atom) -> Atom {
        Atom { pred: a.pred, args: a.args.iter().map(|t| self.apply_term(t)).collect() }
    }

    /// Materializes the match as a [`Subst`]: the slot bindings, plus —
    /// for [`Seed::Subst`] — the seed's out-of-plan bindings (the
    /// historical `extend_homomorphism` contract).
    pub fn to_subst(&self) -> Subst {
        let mut out = match self.seed {
            Seed::Subst(s) => (*s).clone(),
            Seed::Empty | Seed::Fn(_) => Subst::new(),
        };
        for (slot, v) in self.plan.vars.iter().enumerate() {
            out.set(*v, self.slots[slot]);
        }
        out
    }
}

pub mod reference {
    //! The naive backtracking homomorphism search — the seed
    //! implementation, preserved verbatim as the differential-testing
    //! oracle for the planned matcher. Every search clones a
    //! `HashMap`-backed [`Subst`] per seed and walks the source atoms in
    //! their written order; its value is being obviously correct and
    //! independently derived. Do not "optimize" this module.

    use super::Buckets;
    use crate::atom::Atom;
    use crate::subst::Subst;
    use crate::term::{Term, Var};

    /// Tries to unify the source atom with the target atom under `s`,
    /// mutating `s`. Returns the bindings added (for backtracking) or
    /// `None`.
    fn match_atom(src: &Atom, dst: &Atom, s: &mut Subst) -> Option<Vec<Var>> {
        debug_assert_eq!(src.key(), dst.key());
        let mut added = Vec::new();
        for (st, dt) in src.args.iter().zip(dst.args.iter()) {
            match st {
                Term::Const(c) => {
                    if *dt != Term::Const(*c) {
                        for v in &added {
                            s.remove(*v);
                        }
                        return None;
                    }
                }
                Term::Var(v) => match s.get(*v) {
                    Some(bound) => {
                        if bound != dt {
                            for w in &added {
                                s.remove(*w);
                            }
                            return None;
                        }
                    }
                    None => {
                        s.set(*v, *dt);
                        added.push(*v);
                    }
                },
            }
        }
        Some(added)
    }

    /// Backtracking search. `emit` is called with each complete
    /// homomorphism; returning `false` from `emit` stops the search.
    fn search(
        src: &[Atom],
        dst: &[Atom],
        buckets: &Buckets,
        idx: usize,
        s: &mut Subst,
        emit: &mut dyn FnMut(&Subst) -> bool,
    ) -> bool {
        if idx == src.len() {
            return emit(s);
        }
        let atom = &src[idx];
        let Some(cands) = buckets.get(&atom.key()) else {
            return true; // no candidates: this branch yields nothing
        };
        for &j in cands {
            if let Some(added) = match_atom(atom, &dst[j], s) {
                let keep_going = search(src, dst, buckets, idx + 1, s, emit);
                for v in added {
                    s.remove(v);
                }
                if !keep_going {
                    return false;
                }
            }
        }
        true
    }

    /// Lazily enumerates homomorphisms from `src` into `dst` extending
    /// `seed`, restricted to the target atoms listed in `buckets`.
    pub fn search_homomorphisms(
        src: &[Atom],
        dst: &[Atom],
        buckets: &Buckets,
        seed: &Subst,
        emit: &mut dyn FnMut(&Subst) -> bool,
    ) {
        let mut s = seed.clone();
        search(src, dst, buckets, 0, &mut s, emit);
    }

    /// First homomorphism extending `seed`, if any.
    pub fn extend_homomorphism(src: &[Atom], dst: &[Atom], seed: &Subst) -> Option<Subst> {
        let buckets = super::bucket_atoms(dst);
        let mut found = None;
        search_homomorphisms(src, dst, &buckets, seed, &mut |h| {
            found = Some(h.clone());
            false
        });
        found
    }

    /// First homomorphism extending `seed` and satisfying `pred`.
    pub fn find_homomorphism_where(
        src: &[Atom],
        dst: &[Atom],
        seed: &Subst,
        pred: &mut dyn FnMut(&Subst) -> bool,
    ) -> Option<Subst> {
        let buckets = super::bucket_atoms(dst);
        let mut found = None;
        search_homomorphisms(src, dst, &buckets, seed, &mut |h| {
            if pred(h) {
                found = Some(h.clone());
                false
            } else {
                true
            }
        });
        found
    }

    /// All homomorphisms extending `seed`, deduplicated by their sorted
    /// binding pairs (the historical allocation-per-emission dedup, kept
    /// as the oracle for the planned path's slot-slice dedup). Returns
    /// the homomorphisms and whether the cap cut the enumeration short.
    pub fn enumerate_homomorphisms(
        src: &[Atom],
        dst: &[Atom],
        seed: &Subst,
        cap: usize,
    ) -> (Vec<Subst>, bool) {
        let buckets = super::bucket_atoms(dst);
        let mut out: Vec<Subst> = Vec::new();
        let mut truncated = false;
        let mut seen: std::collections::HashSet<Vec<(Var, Term)>> =
            std::collections::HashSet::new();
        search_homomorphisms(src, dst, &buckets, seed, &mut |h| {
            if seen.insert(h.sorted_pairs()) {
                if out.len() == cap {
                    truncated = true;
                    return false;
                }
                out.push(h.clone());
            }
            true
        });
        (out, truncated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::query::CqQuery;

    fn q(s: &str) -> CqQuery {
        parse_query(s).unwrap()
    }

    fn all_planned(src: &[Atom], dst: &[Atom], seed: &Subst) -> Vec<Subst> {
        let buckets = bucket_atoms(dst);
        let plan = MatchPlan::new(src);
        let mut out = Vec::new();
        plan.search(Target::new(dst, &buckets), &Seed::Subst(seed), &mut |m| {
            out.push(m.to_subst());
            true
        });
        out
    }

    #[test]
    fn plan_search_matches_reference_emission_order() {
        let src = q("q() :- p(X,Y), p(Y,Z)").body;
        let dst = q("q() :- p(1,2), p(2,3), p(2,2)").body;
        let planned = all_planned(&src, &dst, &Subst::new());
        let buckets = bucket_atoms(&dst);
        let mut naive = Vec::new();
        reference::search_homomorphisms(&src, &dst, &buckets, &Subst::new(), &mut |h| {
            naive.push(h.clone());
            true
        });
        assert_eq!(planned, naive);
    }

    #[test]
    fn seeded_search_carries_out_of_plan_bindings() {
        let src = q("q() :- p(X)").body;
        let dst = q("q() :- p(1)").body;
        let seed =
            Subst::from_pairs([(Var::new("Z"), Term::int(9)), (Var::new("X"), Term::int(1))]);
        let hs = all_planned(&src, &dst, &seed);
        assert_eq!(hs.len(), 1);
        assert_eq!(hs[0].get(Var::new("Z")), Some(&Term::int(9)));
        // A conflicting seed kills the only candidate.
        let bad = Subst::from_pairs([(Var::new("X"), Term::int(2))]);
        assert!(all_planned(&src, &dst, &bad).is_empty());
    }

    #[test]
    fn optimized_plan_emits_the_same_match_set() {
        let src = q("q() :- a(X,Y), b(Y,3), c(Y)").body;
        let dst = q("q() :- a(1,2), a(2,2), b(2,3), c(2), b(1,4)").body;
        let by_plan: std::collections::HashSet<Vec<(Var, Term)>> =
            all_planned(&src, &dst, &Subst::new()).iter().map(Subst::sorted_pairs).collect();
        let plan = MatchPlan::optimized(&src, &[]);
        let buckets = bucket_atoms(&dst);
        let mut opt: std::collections::HashSet<Vec<(Var, Term)>> = std::collections::HashSet::new();
        plan.search(Target::new(&dst, &buckets), &Seed::Empty, &mut |m| {
            opt.insert(m.to_subst().sorted_pairs());
            true
        });
        assert_eq!(by_plan, opt);
        // And the optimized order leads with the constant-bearing b-atom.
        assert_eq!(plan.steps[0].key.0, crate::atom::Predicate::new("b"));
    }

    #[test]
    fn empty_plan_emits_once() {
        let dst = q("q() :- p(1)").body;
        let buckets = bucket_atoms(&dst);
        let plan = MatchPlan::new(&[]);
        let mut n = 0;
        plan.search(Target::new(&dst, &buckets), &Seed::Empty, &mut |_| {
            n += 1;
            true
        });
        assert_eq!(n, 1);
    }

    #[test]
    fn stats_ordering_changes_order_not_matches() {
        // Two all-fresh atoms: static heuristic ties; cardinality breaks
        // toward the small bucket.
        let src = q("q() :- big(X,Y), small(Y,Z)").body;
        let mut dst = q("q() :- small(7,8)").body;
        for i in 0..9 {
            dst.extend(q(&format!("q() :- big({i},{i})")).body);
        }
        let buckets = bucket_atoms(&dst);
        let card = |k: &(Predicate, usize)| buckets.get(k).map_or(0, |b| b.len());
        let plan = MatchPlan::optimized_with_stats(&src, &[], &card);
        assert_eq!(plan.steps[0].key.0, Predicate::new("small"));
        // Identical match sets either way.
        let base: std::collections::HashSet<Vec<(Var, Term)>> =
            all_planned(&src, &dst, &Subst::new()).iter().map(Subst::sorted_pairs).collect();
        let mut with_stats = std::collections::HashSet::new();
        plan.search(Target::new(&dst, &buckets), &Seed::Empty, &mut |m| {
            with_stats.insert(m.to_subst().sorted_pairs());
            true
        });
        assert_eq!(base, with_stats);
    }

    #[test]
    fn boxed_and_arena_plans_share_one_planner() {
        // `MatchPlan` and `ArenaPlan` order their steps with the same
        // `greedy_order`: given the same bound variables and target they
        // scan the same atoms in the same order, with or without
        // cardinalities.
        use crate::arena::{ArenaPlan, TermArena};
        let src = q("q() :- a(X,Y), b(Y,3), c(Z), d(Z,W), e(W,X)").body;
        let dst = q("q() :- a(1,2), b(2,3), c(5), c(6), c(7), d(5,1), d(6,1), e(1,1)").body;
        let buckets = bucket_atoms(&dst);
        let card = |k: &(Predicate, usize)| buckets.get(k).map_or(0, |b| b.len());
        let mut arena = TermArena::new();
        for atom in &dst {
            let t = arena.table_id(atom.key());
            let ids: Vec<_> = atom.args.iter().map(|a| arena.intern(*a)).collect();
            arena.push_row(t, &ids);
        }
        let boxed_order = |p: &MatchPlan| p.steps.iter().map(|s| s.key).collect::<Vec<_>>();
        let arena_order = |p: &ArenaPlan, arena: &TermArena| {
            (0..p.len()).map(|i| arena.table(p.step_table(i)).key()).collect::<Vec<_>>()
        };
        let written: Vec<_> = src.iter().map(Atom::key).collect();
        for bound in [vec![], vec![Var::new("Z")], vec![Var::new("W"), Var::new("X")]] {
            let boxed = boxed_order(&MatchPlan::optimized(&src, &bound));
            let plan = ArenaPlan::optimized(&src, &bound, &mut arena);
            assert_eq!(boxed, arena_order(&plan, &arena), "static order, bound {bound:?}");
            assert_ne!(boxed, written, "the planner reorders this body");
            let boxed = boxed_order(&MatchPlan::optimized_with_stats(&src, &bound, &card));
            let plan = ArenaPlan::optimized_with_stats(&src, &bound, &mut arena);
            assert_eq!(boxed, arena_order(&plan, &arena), "stats order, bound {bound:?}");
        }
    }
}
