//! Flat per-run arena: `u32` term ids and columnar predicate tables.
//!
//! The boxed representation ([`Atom`] = `Vec<Term>`, [`Term`] = interned
//! [`crate::Symbol`]s behind an `RwLock`) is what the parser, the service
//! boundary and the differential oracles speak. It is also what made the
//! chase hot path allocator-bound: every candidate comparison chased a
//! `Vec` pointer and every `Symbol` ordering took an interner read lock.
//! This module is the flat alternative the optimized engines run on.
//!
//! ## Id spaces
//!
//! A [`TermArena`] owns two id spaces, both dense `u32`s:
//!
//! * **Term ids** ([`TermId`]): every distinct [`Term`] (variable or
//!   constant) is interned once, at arena-build time, into an id.
//!   Equality of ids is equality of terms, so searches compare integers
//!   and the `Symbol` interner (and its lock) is never consulted inside
//!   a search. Ids are *per-arena*: they mean nothing outside the run
//!   that made them.
//! * **Table ids**: every `(predicate, arity)` key is registered once
//!   into a [`ColumnTable`]. Plans resolve their steps to table ids at
//!   compile time, so the per-candidate path does no hashing at all.
//!
//! ## Columnar layout
//!
//! A [`ColumnTable`] stores its atoms **by argument position**: one
//! contiguous `Vec<TermId>` per column, plus an ascending list of live
//! row indices. A backtracking candidate scan therefore sweeps linear
//! integer arrays; killing a row (chase dedup) removes it from the live
//! list without moving cells, and an egd substitution rewrites cells in
//! place — rows never change position, so candidate order is stable.
//!
//! Rows are appended in the caller's first-occurrence order. The chase
//! engine appends its body slots in slot order, which makes per-table
//! ascending row order equal the boxed engine's ascending-slot bucket
//! order — the property that keeps the arena engine **step-identical**
//! to the boxed one (same first match, same firing sequence).
//!
//! ## Searching
//!
//! [`ArenaPlan`] mirrors [`crate::matcher::MatchPlan`] — dense variable
//! slots, flat ops, undo trail — but binds [`TermId`]s into a reusable
//! [`ArenaFrame`]. A frame is allocated once per dependency per run and
//! [`ArenaFrame::reset`] between searches, so a warm chase step performs
//! **zero heap allocations** (asserted by `tests/tests/alloc_regression.rs`).
//! Seeding (the conclusion-extension check of a tgd scan) goes through a
//! precompiled [`SeedMap`] — extension slot ← premise slot — instead of
//! a closure over a `Subst`.
//!
//! ## Boxed ↔ arena boundary contract
//!
//! The arena is a *run-local accelerator*, not a public wire format:
//!
//! * conversion **in** happens once per run ([`TermArena::intern`],
//!   [`ColumnTable`] fills) — after that, nothing inside a search
//!   touches a boxed value;
//! * conversion **out** happens only at observable boundaries: trace
//!   strings, materialized terminal queries, `Subst`s handed to custom
//!   admission predicates ([`ArenaPlan::bind_subst`]). Cache
//!   fingerprints, the persist wire format and the service layer keep
//!   consuming boxed [`crate::CqQuery`]s and never see an id;
//! * the naive oracles ([`crate::matcher::reference`], the reference
//!   chase drivers) stay entirely on the boxed representation, so the
//!   differential suites remain independent of this module.

use crate::atom::{Atom, Predicate};
use crate::matcher::greedy_order;
use crate::subst::Subst;
use crate::term::{Term, Var};
use std::collections::HashMap;

/// A dense per-arena term id. Equal ids ⇔ equal terms (within one arena).
pub type TermId = u32;

/// One `(predicate, arity)` table in columnar layout. See the module docs.
pub struct ColumnTable {
    key: (Predicate, usize),
    /// One contiguous column per argument position; `cols[j][row]` is the
    /// `j`-th argument of `row`. Dead rows keep stale cells.
    cols: Vec<Vec<TermId>>,
    /// Live row indices, ascending — the candidate list searches sweep.
    rows: Vec<u32>,
}

impl ColumnTable {
    /// The `(predicate, arity)` key this table stores.
    pub fn key(&self) -> (Predicate, usize) {
        self.key
    }

    /// The live rows, ascending.
    pub fn live_rows(&self) -> &[u32] {
        &self.rows
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the table empty (no live rows)?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The column for argument position `j`.
    pub fn col(&self, j: usize) -> &[TermId] {
        &self.cols[j]
    }

    /// The cell at (`row`, argument `j`).
    pub fn cell(&self, row: u32, j: usize) -> TermId {
        self.cols[j][row as usize]
    }
}

/// The flat per-run arena: term interner plus columnar tables. See the
/// module docs for the id spaces and the boundary contract.
#[derive(Default)]
pub struct TermArena {
    /// Id → term (terms are `Copy`; no boxing).
    terms: Vec<Term>,
    /// Term → id.
    ids: HashMap<Term, TermId>,
    /// Table id → columnar storage.
    tables: Vec<ColumnTable>,
    /// `(predicate, arity)` → table id.
    table_ids: HashMap<(Predicate, usize), u32>,
}

impl TermArena {
    /// An empty arena.
    pub fn new() -> TermArena {
        TermArena::default()
    }

    /// Interns a term, returning its id (stable for the arena's lifetime).
    pub fn intern(&mut self, t: Term) -> TermId {
        match self.ids.get(&t) {
            Some(&id) => id,
            None => {
                let id = u32::try_from(self.terms.len()).expect("term id overflow");
                self.terms.push(t);
                self.ids.insert(t, id);
                id
            }
        }
    }

    /// The id of `t`, if it has been interned (never allocates or grows).
    pub fn lookup(&self, t: &Term) -> Option<TermId> {
        self.ids.get(t).copied()
    }

    /// The term behind an id.
    pub fn term(&self, id: TermId) -> Term {
        self.terms[id as usize]
    }

    /// Is the id a variable?
    pub fn is_var(&self, id: TermId) -> bool {
        self.terms[id as usize].is_var()
    }

    /// The table id for `key`, registering an empty table on first use.
    /// Register every key a run will touch up front (or at plan-compile
    /// time) so searches and fires never miss.
    pub fn table_id(&mut self, key: (Predicate, usize)) -> u32 {
        match self.table_ids.get(&key) {
            Some(&t) => t,
            None => {
                let t = u32::try_from(self.tables.len()).expect("table id overflow");
                self.tables.push(ColumnTable {
                    key,
                    cols: vec![Vec::new(); key.1],
                    rows: Vec::new(),
                });
                self.table_ids.insert(key, t);
                t
            }
        }
    }

    /// The table id for `key`, if registered (never registers).
    pub fn lookup_table(&self, key: &(Predicate, usize)) -> Option<u32> {
        self.table_ids.get(key).copied()
    }

    /// The table behind an id.
    pub fn table(&self, t: u32) -> &ColumnTable {
        &self.tables[t as usize]
    }

    /// Number of live rows under `key` (0 when unregistered) — the live
    /// cardinality statistic [`ArenaPlan::optimized_with_stats`] orders by.
    pub fn live_count(&self, key: &(Predicate, usize)) -> usize {
        self.lookup_table(key).map_or(0, |t| self.tables[t as usize].rows.len())
    }

    /// Appends a live row holding `args` to table `t`, returning its row
    /// index. Rows are append-only; per-table row order is the caller's
    /// append order.
    pub fn push_row(&mut self, t: u32, args: &[TermId]) -> u32 {
        let table = &mut self.tables[t as usize];
        debug_assert_eq!(args.len(), table.cols.len(), "arity mismatch on {:?}", table.key);
        let row = u32::try_from(table.cols.first().map_or(table.rows.len(), Vec::len))
            .expect("row overflow");
        for (col, &id) in table.cols.iter_mut().zip(args) {
            col.push(id);
        }
        table.rows.push(row);
        row
    }

    /// Removes `row` from table `t`'s live list (cells stay in place, so
    /// other rows keep their positions and candidate order is stable).
    pub fn kill_row(&mut self, t: u32, row: u32) {
        let table = &mut self.tables[t as usize];
        if let Ok(pos) = table.rows.binary_search(&row) {
            table.rows.remove(pos);
        }
    }

    /// Overwrites the cell at (`row`, argument `j`) of table `t` in place.
    pub fn set_cell(&mut self, t: u32, row: u32, j: usize, id: TermId) {
        self.tables[t as usize].cols[j][row as usize] = id;
    }

    /// Drops every row of every table, keeping the interned terms and the
    /// table registry (so compiled plans survive). The instance chase
    /// refills the arena from the database after each mutating step.
    pub fn clear_rows(&mut self) {
        for table in &mut self.tables {
            for col in &mut table.cols {
                col.clear();
            }
            table.rows.clear();
        }
    }

    /// Materializes a boxed atom from a row (boundary conversion only).
    pub fn row_atom(&self, t: u32, row: u32) -> Atom {
        let table = &self.tables[t as usize];
        Atom {
            pred: table.key.0,
            args: table.cols.iter().map(|col| self.term(col[row as usize])).collect(),
        }
    }
}

/// One argument op of an [`ArenaPlan`] step.
#[derive(Copy, Clone, Debug)]
enum AOp {
    /// The cell must equal this interned term.
    Const(TermId),
    /// Bind (first occurrence) or compare (bound) the dense slot.
    Slot(u32),
}

/// One atom of the compiled plan: its table plus an ops range into the
/// plan's flat arena.
#[derive(Debug)]
struct AStep {
    table: u32,
    ops_start: u32,
    arity: u32,
}

/// How an egd equality side (or any single term) reads off a premise
/// match: a constant, a premise slot, or a variable the premise does not
/// bind (maps to itself, like [`Subst::apply_term`]).
#[derive(Copy, Clone, Debug)]
pub enum EqOp {
    /// An interned constant (or pre-resolved term).
    Const(TermId),
    /// Read the premise frame's slot.
    Slot(u32),
    /// A variable outside the plan: its image is itself.
    Free(Var),
}

impl EqOp {
    /// Resolves the op against a complete premise match (`slots` from the
    /// emit callback) to a boxed term — a boundary conversion.
    pub fn resolve(&self, arena: &TermArena, slots: &[TermId]) -> Term {
        match self {
            EqOp::Const(id) => arena.term(*id),
            EqOp::Slot(s) => arena.term(slots[*s as usize]),
            EqOp::Free(v) => Term::Var(*v),
        }
    }
}

/// A seed assignment `dst slot ← src slot`, precompiled between two plans
/// sharing variables (tgd premise → conclusion). Replaces the boxed
/// engine's per-check `Seed::Fn` closure with two integer reads.
pub type SeedMap = Vec<(u32, u32)>;

/// The compiled arena search plan: [`crate::matcher::MatchPlan`]'s twin
/// over [`TermId`] columns. Variables are dense slots in first-occurrence
/// order along the plan; see the module docs.
pub struct ArenaPlan {
    steps: Vec<AStep>,
    ops: Vec<AOp>,
    /// Slot → source variable.
    vars: Vec<Var>,
}

impl ArenaPlan {
    /// Compiles `src` keeping the original atom order (emission order is
    /// identical to the boxed reference-order plan — required where "first
    /// match" is load-bearing, i.e. every premise plan).
    pub fn new(src: &[Atom], arena: &mut TermArena) -> ArenaPlan {
        ArenaPlan::compile(src, (0..src.len()).collect(), arena)
    }

    /// Compiles `src` greedily reordered by static selectivity, exactly
    /// like [`crate::matcher::MatchPlan::optimized`]: constants and
    /// already-bound slots first, ties toward fewer fresh variables, then
    /// the original position. Existence-only searches only.
    pub fn optimized(src: &[Atom], bound: &[Var], arena: &mut TermArena) -> ArenaPlan {
        ArenaPlan::compile(src, greedy_order(src, bound, |_| 0), arena)
    }

    /// The table id of step `i` — exposed for tests and benches that
    /// inspect plan shape.
    pub fn step_table(&self, i: usize) -> u32 {
        self.steps[i].table
    }

    /// [`ArenaPlan::optimized`] with live cardinality statistics
    /// (Selinger-lite): among equally-connected atoms, scan the smaller
    /// table first. Cardinalities are read off the arena's live rows once,
    /// at compile time. Existence-only searches only (the emitted match
    /// *set* is order-independent).
    pub fn optimized_with_stats(src: &[Atom], bound: &[Var], arena: &mut TermArena) -> ArenaPlan {
        let cards: Vec<usize> = src.iter().map(|a| arena.live_count(&a.key())).collect();
        ArenaPlan::compile(src, greedy_order(src, bound, |i| cards[i]), arena)
    }

    fn compile(src: &[Atom], order: Vec<usize>, arena: &mut TermArena) -> ArenaPlan {
        let mut vars: Vec<Var> = Vec::new();
        let mut steps = Vec::with_capacity(order.len());
        let mut ops: Vec<AOp> = Vec::with_capacity(src.iter().map(Atom::arity).sum());
        for &i in &order {
            let atom = &src[i];
            let ops_start = u32::try_from(ops.len()).expect("ops overflow");
            for t in &atom.args {
                ops.push(match t {
                    Term::Const(_) => AOp::Const(arena.intern(*t)),
                    Term::Var(v) => {
                        let slot = match vars.iter().position(|w| w == v) {
                            Some(s) => s,
                            None => {
                                vars.push(*v);
                                vars.len() - 1
                            }
                        };
                        AOp::Slot(u32::try_from(slot).expect("slot overflow"))
                    }
                });
            }
            steps.push(AStep {
                table: arena.table_id(atom.key()),
                ops_start,
                arity: atom.arity() as u32,
            });
        }
        ArenaPlan { steps, ops, vars }
    }

    /// Number of source atoms.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Is the source conjunction empty?
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Number of dense variable slots.
    pub fn slot_count(&self) -> usize {
        self.vars.len()
    }

    /// The slot of `v`, if `v` occurs in the source conjunction.
    pub fn slot(&self, v: Var) -> Option<u32> {
        self.vars.iter().position(|w| *w == v).map(|s| s as u32)
    }

    /// Compiles the seed map `self slot ← src slot` for every variable the
    /// two plans share (tgd conclusion ← premise).
    pub fn seed_map_from(&self, src: &ArenaPlan) -> SeedMap {
        let mut map = SeedMap::new();
        for (slot, v) in self.vars.iter().enumerate() {
            if let Some(s) = src.slot(*v) {
                map.push((slot as u32, s));
            }
        }
        map
    }

    /// Compiles `t` into an [`EqOp`] against this plan (egd equality
    /// sides; also conclusion-template arguments).
    pub fn eq_op(&self, t: &Term, arena: &mut TermArena) -> EqOp {
        match t {
            Term::Const(_) => EqOp::Const(arena.intern(*t)),
            Term::Var(v) => match self.slot(*v) {
                Some(s) => EqOp::Slot(s),
                None => EqOp::Free(*v),
            },
        }
    }

    /// Writes the match's bindings into `out` (slot variable → term) — a
    /// boundary conversion for custom admission predicates and fires.
    pub fn bind_subst(&self, arena: &TermArena, slots: &[TermId], out: &mut Subst) {
        for (slot, v) in self.vars.iter().enumerate() {
            out.set(*v, arena.term(slots[slot]));
        }
    }

    fn step_ops(&self, step: &AStep) -> &[AOp] {
        let start = step.ops_start as usize;
        &self.ops[start..start + step.arity as usize]
    }

    /// Enumerates matches against the arena, extending whatever seeds the
    /// caller planted in `frame` (which must be [`ArenaFrame::reset`] for
    /// this plan first). `emit` observes the complete slot array; return
    /// `false` to stop. Returns `false` iff `emit` stopped the search.
    /// Allocation-free once the frame is warm.
    pub fn search(
        &self,
        arena: &TermArena,
        frame: &mut ArenaFrame,
        emit: &mut dyn FnMut(&[TermId]) -> bool,
    ) -> bool {
        self.run_step(arena, frame, 0, emit)
    }

    /// Is there any match extending the frame's seeds? Allocation-free.
    pub fn has_match(&self, arena: &TermArena, frame: &mut ArenaFrame) -> bool {
        let mut hit = false;
        self.search(arena, frame, &mut |_| {
            hit = true;
            false
        });
        hit
    }

    fn run_step(
        &self,
        arena: &TermArena,
        frame: &mut ArenaFrame,
        depth: usize,
        emit: &mut dyn FnMut(&[TermId]) -> bool,
    ) -> bool {
        if depth == self.steps.len() {
            return emit(&frame.slots);
        }
        let step = &self.steps[depth];
        let table = arena.table(step.table);
        let ops = self.step_ops(step);
        'cand: for &row in table.live_rows() {
            let mark = frame.trail.len();
            for (j, op) in ops.iter().enumerate() {
                let cell = table.cols[j][row as usize];
                match op {
                    AOp::Const(c) => {
                        if cell != *c {
                            frame.undo_to(mark);
                            continue 'cand;
                        }
                    }
                    AOp::Slot(s) => {
                        let s = *s as usize;
                        if frame.bound[s] {
                            if frame.slots[s] != cell {
                                frame.undo_to(mark);
                                continue 'cand;
                            }
                        } else {
                            frame.slots[s] = cell;
                            frame.bound[s] = true;
                            frame.trail.push(s as u32);
                        }
                    }
                }
            }
            let keep_going = self.run_step(arena, frame, depth + 1, emit);
            frame.undo_to(mark);
            if !keep_going {
                return false;
            }
        }
        true
    }
}

/// The reusable arena search state: dense slot array plus undo trail.
/// Allocate once per plan per run; [`ArenaFrame::reset`] (cheap, no
/// allocation once warm) between searches, then plant seeds with
/// [`ArenaFrame::seed`].
#[derive(Default)]
pub struct ArenaFrame {
    /// Slot values; meaningful only where `bound`.
    slots: Vec<TermId>,
    /// Which slots hold a binding (seeded or trail-recorded).
    bound: Vec<bool>,
    /// Slots bound since the search started, in binding order.
    trail: Vec<u32>,
}

impl ArenaFrame {
    /// An empty frame (sized lazily by [`ArenaFrame::reset`]).
    pub fn new() -> ArenaFrame {
        ArenaFrame::default()
    }

    /// A frame pre-sized for `plan`.
    pub fn for_plan(plan: &ArenaPlan) -> ArenaFrame {
        let mut f = ArenaFrame::new();
        f.reset(plan.slot_count());
        f
    }

    /// Clears every binding and sizes the frame for a plan with `slots`
    /// dense slots. Allocation-free once the frame has been this large.
    pub fn reset(&mut self, slots: usize) {
        self.slots.resize(slots, 0);
        self.bound.clear();
        self.bound.resize(slots, false);
        self.trail.clear();
    }

    /// Seeds slot `s` with `id`. Seeded slots survive backtracking for
    /// the whole search (they are never trailed).
    pub fn seed(&mut self, s: u32, id: TermId) {
        self.slots[s as usize] = id;
        self.bound[s as usize] = true;
    }

    /// Seeds this frame from a source match via a precompiled [`SeedMap`]
    /// (`self slot ← src_slots[src slot]`).
    pub fn seed_from(&mut self, map: &SeedMap, src_slots: &[TermId]) {
        for &(dst, src) in map {
            self.seed(dst, src_slots[src as usize]);
        }
    }

    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let s = self.trail.pop().expect("trail underflow") as usize;
            self.bound[s] = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::{bucket_atoms, MatchPlan, Seed, Target};
    use crate::parser::parse_query;

    fn body(s: &str) -> Vec<Atom> {
        parse_query(s).unwrap().body
    }

    /// Loads a boxed body into a fresh arena, rows in slot order.
    fn load(arena: &mut TermArena, atoms: &[Atom]) {
        let mut scratch = Vec::new();
        for a in atoms {
            let t = arena.table_id(a.key());
            scratch.clear();
            for arg in &a.args {
                scratch.push(arena.intern(*arg));
            }
            arena.push_row(t, &scratch);
        }
    }

    fn all_matches(src: &[Atom], dst: &[Atom]) -> Vec<Vec<Term>> {
        let mut arena = TermArena::new();
        load(&mut arena, dst);
        let plan = ArenaPlan::new(src, &mut arena);
        let mut frame = ArenaFrame::for_plan(&plan);
        let mut out = Vec::new();
        plan.search(&arena, &mut frame, &mut |slots| {
            out.push(slots.iter().map(|&id| arena.term(id)).collect());
            true
        });
        out
    }

    #[test]
    fn emission_order_matches_boxed_plan() {
        let src = body("q() :- p(X,Y), p(Y,Z)");
        let dst = body("q() :- p(1,2), p(2,3), p(2,2)");
        let arena_runs = all_matches(&src, &dst);
        let plan = MatchPlan::new(&src);
        let buckets = bucket_atoms(&dst);
        let mut boxed_runs: Vec<Vec<Term>> = Vec::new();
        plan.search(Target::new(&dst, &buckets), &Seed::Empty, &mut |m| {
            boxed_runs.push(m.slots().to_vec());
            true
        });
        assert_eq!(arena_runs, boxed_runs);
    }

    #[test]
    fn constants_and_repeated_vars_filter() {
        let src = body("q() :- p(X,X), r(X,3)");
        let dst = body("q() :- p(1,2), p(2,2), r(2,3), r(1,3)");
        let ms = all_matches(&src, &dst);
        assert_eq!(ms, vec![vec![Term::int(2)]]);
    }

    #[test]
    fn seeded_search_pins_slots() {
        let src = body("q() :- e(X,Y)");
        let dst = body("q() :- e(1,2), e(2,3)");
        let mut arena = TermArena::new();
        load(&mut arena, &dst);
        let plan = ArenaPlan::new(&src, &mut arena);
        let x = plan.slot(Var::new("X")).unwrap();
        let two = arena.intern(Term::int(2));
        let mut frame = ArenaFrame::for_plan(&plan);
        frame.reset(plan.slot_count());
        frame.seed(x, two);
        let mut hits = Vec::new();
        plan.search(&arena, &mut frame, &mut |slots| {
            hits.push(slots.to_vec());
            true
        });
        assert_eq!(hits.len(), 1);
        assert_eq!(arena.term(hits[0][plan.slot(Var::new("Y")).unwrap() as usize]), Term::int(3));
    }

    /// The chase fires the first match and stops: an `emit` that returns
    /// false ends the search after one emission, the search reports it,
    /// and the trail is unwound so the frame serves the next search
    /// without a reset.
    #[test]
    fn stopping_early_unwinds_the_trail() {
        let src = body("q() :- e(X,Y), e(Y,Z)");
        let dst = body("q() :- e(1,2), e(2,3), e(3,4)");
        let mut arena = TermArena::new();
        load(&mut arena, &dst);
        let plan = ArenaPlan::new(&src, &mut arena);
        let mut frame = ArenaFrame::for_plan(&plan);
        let mut firsts = Vec::new();
        for _ in 0..2 {
            let mut emitted = 0;
            let finished = plan.search(&arena, &mut frame, &mut |slots| {
                emitted += 1;
                firsts.push(slots.iter().map(|&id| arena.term(id)).collect::<Vec<_>>());
                false
            });
            assert!(!finished);
            assert_eq!(emitted, 1);
            assert!(frame.trail.is_empty() && !frame.bound.contains(&true));
        }
        assert_eq!(firsts[0], vec![Term::int(1), Term::int(2), Term::int(3)]);
        assert_eq!(firsts[0], firsts[1]);
        assert_eq!(all_matches(&src, &dst).len(), 2);
        assert!(plan.has_match(&arena, &mut frame));
    }

    #[test]
    fn kill_and_rewrite_preserve_row_order() {
        let dst = body("q() :- e(1,2), e(2,3), e(3,4)");
        let mut arena = TermArena::new();
        load(&mut arena, &dst);
        let t = arena.lookup_table(&dst[0].key()).unwrap();
        arena.kill_row(t, 1);
        assert_eq!(arena.table(t).live_rows(), &[0, 2]);
        // Rewrite cell (2, 0): 3 → 9; row positions unchanged.
        let nine = arena.intern(Term::int(9));
        arena.set_cell(t, 2, 0, nine);
        assert_eq!(arena.row_atom(t, 2), body("q() :- e(9,4)")[0]);
        let src = body("q() :- e(X,Y)");
        let plan = ArenaPlan::new(&src, &mut arena);
        let mut frame = ArenaFrame::for_plan(&plan);
        let mut firsts = Vec::new();
        plan.search(&arena, &mut frame, &mut |slots| {
            firsts.push(arena.term(slots[0]));
            true
        });
        assert_eq!(firsts, vec![Term::int(1), Term::int(9)]);
    }

    #[test]
    fn stats_ordering_prefers_small_tables() {
        // Both atoms all-fresh: static heuristic ties, cardinality breaks.
        let src = body("q() :- big(X,Y), small(Y,Z)");
        let mut arena = TermArena::new();
        let big: Vec<Atom> =
            (0..10).map(|i| body(&format!("q() :- big({i},{i})")).remove(0)).collect();
        let small = body("q() :- small(7,8)");
        load(&mut arena, &big);
        load(&mut arena, &small);
        let plan = ArenaPlan::optimized_with_stats(&src, &[], &mut arena);
        // First step scans the small table.
        assert_eq!(plan.step_table(0), arena.lookup_table(&small[0].key()).unwrap());
        // And the match set is unchanged vs the reference-order plan.
        let reference = ArenaPlan::new(&src, &mut arena);
        let count = |p: &ArenaPlan, a: &TermArena| {
            let mut f = ArenaFrame::for_plan(p);
            let mut n = 0;
            p.search(a, &mut f, &mut |_| {
                n += 1;
                true
            });
            n
        };
        assert_eq!(count(&plan, &arena), count(&reference, &arena));
    }

    #[test]
    fn clear_rows_keeps_registry_and_terms() {
        let dst = body("q() :- e(1,2)");
        let mut arena = TermArena::new();
        load(&mut arena, &dst);
        let t = arena.lookup_table(&dst[0].key()).unwrap();
        let one = arena.lookup(&Term::int(1)).unwrap();
        arena.clear_rows();
        assert!(arena.table(t).is_empty());
        assert_eq!(arena.lookup(&Term::int(1)), Some(one));
        assert_eq!(arena.lookup_table(&dst[0].key()), Some(t));
    }
}
