//! The persistent body index of the incremental chase engine — now
//! arena-backed and columnar.
//!
//! The naive driver pays, on **every** step, for a full rescan of the
//! query: rebuilding homomorphism buckets, recomputing the variable set,
//! re-cloning and re-deduplicating the whole (exponentially growing —
//! Appendix H) body. [`BodyIndex`] amortizes all of that: it owns the body
//! for the duration of a chase run and is updated in place as tgd steps
//! append atoms and egd steps substitute variables.
//!
//! Since the flat-arena refactor the index stores **no boxed atoms at
//! all**: the body lives in a [`TermArena`] — terms interned to `u32` ids
//! once, atoms as rows of per-predicate columnar tables
//! ([`eqsql_cq::ColumnTable`]) — and every secondary structure keys on
//! ids. The former clone churn (snapshotting cloned every live atom;
//! an egd substitution re-cloned old and new atoms per touched slot just
//! to maintain the occurrence map) is gone: substitutions overwrite
//! column cells in place, and the occurrence map hashes an inline
//! fingerprint of the flat id slice.
//!
//! Maintained invariants:
//!
//! * every atom ever inserted owns a **global slot** (append-only;
//!   deduplicated duplicates keep their slot but die); slots map to a
//!   `(table, row)` in the arena, rows are appended in slot order, so
//!   per-table ascending row order equals ascending slot order — exactly
//!   the candidate order of the boxed engine's buckets, which keeps the
//!   arena engine step-identical;
//! * `occurrences` maps each live atom *value* (fingerprint of table +
//!   argument ids) to its live slots — the incremental dedup: a would-be
//!   duplicate is refused in O(1), and a substitution-induced collision
//!   keeps the earliest slot (first occurrence wins, as in the naive
//!   driver's canonical representation);
//! * `var_slots` / `var_count` track, per variable id, the slots whose
//!   atom mentions it (lazily pruned) and the number of live occurrences
//!   — an egd substitution touches only the atoms that actually contain
//!   the replaced variable.
//!
//! Slot order equals first-occurrence order, so materializing the body
//! ([`BodyIndex::to_body`], a boundary conversion) yields the same atom
//! sequence the naive driver's `canonical_representation`-after-every-step
//! discipline produces.

use crate::step::DedupPolicy;
use eqsql_cq::{Atom, CqQuery, Predicate, Term, TermArena, TermId, Var};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Inline fingerprint capacity: atoms up to this arity hash without any
/// heap allocation (every workload in the tree is arity ≤ 4).
const FP_INLINE: usize = 8;

/// An atom-value fingerprint: the table id plus the flat argument-id
/// slice, inline up to [`FP_INLINE`] arguments. Hash/Eq go through the
/// slice, so inline and spilled fingerprints of equal values agree.
#[derive(Clone, Debug)]
struct AtomFp {
    table: u32,
    len: u8,
    inline: [TermId; FP_INLINE],
    spill: Option<Box<[TermId]>>,
}

impl AtomFp {
    fn new(table: u32, args: &[TermId]) -> AtomFp {
        if args.len() <= FP_INLINE {
            let mut inline = [0u32; FP_INLINE];
            inline[..args.len()].copy_from_slice(args);
            AtomFp { table, len: args.len() as u8, inline, spill: None }
        } else {
            AtomFp { table, len: 0, inline: [0; FP_INLINE], spill: Some(args.into()) }
        }
    }

    fn args(&self) -> &[TermId] {
        match &self.spill {
            Some(b) => b,
            None => &self.inline[..self.len as usize],
        }
    }
}

impl PartialEq for AtomFp {
    fn eq(&self, other: &AtomFp) -> bool {
        self.table == other.table && self.args() == other.args()
    }
}

impl Eq for AtomFp {}

impl Hash for AtomFp {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.table.hash(state);
        self.args().hash(state);
    }
}

/// The incremental, arena-backed body index. See the module docs.
pub struct BodyIndex {
    /// The flat body storage: interner plus columnar tables. Plans are
    /// compiled against it via [`BodyIndex::arena_mut`].
    arena: TermArena,
    /// Global slot → (table, row).
    slot_loc: Vec<(u32, u32)>,
    /// Liveness per slot.
    alive: Vec<bool>,
    /// Number of live slots.
    live: usize,
    /// Atom value fingerprint → live slots holding it (usually 1 entry).
    occurrences: HashMap<AtomFp, Vec<usize>>,
    /// Variable id → slots whose atom mentions it (may contain stale
    /// slots; pruned when consulted).
    var_slots: HashMap<TermId, Vec<usize>>,
    /// Variable id → live occurrence count (argument positions, over live
    /// atoms only). A variable is "current" iff its count is positive.
    var_count: HashMap<TermId, usize>,
}

impl BodyIndex {
    /// Builds the index over a query body (assumed already normalized by
    /// the caller's dedup policy — slots mirror the body in order).
    pub fn new(body: &[Atom]) -> BodyIndex {
        let mut ix = BodyIndex {
            arena: TermArena::new(),
            slot_loc: Vec::with_capacity(body.len() * 2),
            alive: Vec::with_capacity(body.len() * 2),
            live: 0,
            occurrences: HashMap::new(),
            var_slots: HashMap::new(),
            var_count: HashMap::new(),
        };
        let mut scratch: Vec<TermId> = Vec::new();
        for atom in body {
            let table = ix.intern_atom(atom, &mut scratch);
            ix.push_slot_ids(table, &scratch);
        }
        ix
    }

    /// Interns an atom's table and arguments into `scratch` (boundary
    /// conversion), returning the table id.
    fn intern_atom(&mut self, atom: &Atom, scratch: &mut Vec<TermId>) -> u32 {
        let table = self.arena.table_id(atom.key());
        scratch.clear();
        for t in &atom.args {
            scratch.push(self.arena.intern(*t));
        }
        table
    }

    /// Number of live atoms.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Is the body empty?
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Does any live atom mention `v`?
    pub fn contains_var(&self, v: Var) -> bool {
        self.arena
            .lookup(&Term::Var(v))
            .is_some_and(|id| self.var_count.get(&id).copied().unwrap_or(0) > 0)
    }

    /// The arena the body lives in — searches run directly against it.
    pub fn arena(&self) -> &TermArena {
        &self.arena
    }

    /// Mutable arena access, for interning terms and compiling
    /// [`eqsql_cq::ArenaPlan`]s against the body's id spaces.
    ///
    /// **Contract:** callers may intern terms and register tables, but
    /// must not push/kill rows or overwrite cells — the index owns row
    /// lifecycle through [`BodyIndex::insert`]/[`BodyIndex::apply_rewrite`].
    pub fn arena_mut(&mut self) -> &mut TermArena {
        &mut self.arena
    }

    /// Materializes the live body in first-occurrence order (boundary
    /// conversion: allocates boxed atoms).
    pub fn to_body(&self) -> Vec<Atom> {
        (0..self.slot_loc.len())
            .filter(|&s| self.alive[s])
            .map(|s| {
                let (t, row) = self.slot_loc[s];
                self.arena.row_atom(t, row)
            })
            .collect()
    }

    /// Is an atom with this exact value live? (Never interns: an atom
    /// with never-seen terms cannot be present.)
    pub fn contains_atom(&self, atom: &Atom) -> bool {
        let Some(table) = self.arena.lookup_table(&atom.key()) else {
            return false;
        };
        let mut args: Vec<TermId> = Vec::with_capacity(atom.args.len());
        for t in &atom.args {
            match self.arena.lookup(t) {
                Some(id) => args.push(id),
                None => return false,
            }
        }
        self.occurrences.get(&AtomFp::new(table, &args)).is_some_and(|slots| !slots.is_empty())
    }

    /// Unconditionally appends a new live slot holding the interned args.
    fn push_slot_ids(&mut self, table: u32, args: &[TermId]) {
        let slot = self.slot_loc.len();
        let row = self.arena.push_row(table, args);
        self.slot_loc.push((table, row));
        for &id in args {
            if self.arena.is_var(id) {
                *self.var_count.entry(id).or_insert(0) += 1;
                let slots = self.var_slots.entry(id).or_default();
                // An atom like p(X, X) yields the id twice; record once.
                if slots.last() != Some(&slot) {
                    slots.push(slot);
                }
            }
        }
        self.occurrences.entry(AtomFp::new(table, args)).or_default().push(slot);
        self.alive.push(true);
        self.live += 1;
    }

    /// Appends a boxed atom (boundary conversion) unless the dedup policy
    /// refuses duplicates of its predicate and an equal atom is already
    /// live. Returns whether a slot was actually added.
    pub fn insert(&mut self, atom: &Atom, dedup: &DedupPolicy) -> bool {
        let mut scratch = Vec::with_capacity(atom.args.len());
        let table = self.intern_atom(atom, &mut scratch);
        self.insert_ids(table, &scratch, dedup)
    }

    /// Appends an atom given as interned ids (the engine's fire path —
    /// no boxed atom is built). Same dedup contract as
    /// [`BodyIndex::insert`].
    pub fn insert_ids(&mut self, table: u32, args: &[TermId], dedup: &DedupPolicy) -> bool {
        let pred = self.arena.table(table).key().0;
        if dedup.dedups(pred)
            && self
                .occurrences
                .get(&AtomFp::new(table, args))
                .is_some_and(|slots| !slots.is_empty())
        {
            return false;
        }
        self.push_slot_ids(table, args);
        true
    }

    /// Kills `slot`, unhooking it from every secondary structure. The
    /// arena row leaves the live list; its cells stay put (columnar rows
    /// never move).
    fn kill(&mut self, slot: usize) {
        debug_assert!(self.alive[slot]);
        self.alive[slot] = false;
        self.live -= 1;
        let (t, row) = self.slot_loc[slot];
        self.arena.kill_row(t, row);
        let arity = self.arena.table(t).key().1;
        let fp = self.fp_of(t, row);
        if let Some(occ) = self.occurrences.get_mut(&fp) {
            occ.retain(|&s| s != slot);
            if occ.is_empty() {
                self.occurrences.remove(&fp);
            }
        }
        for j in 0..arity {
            let id = self.arena.table(t).cell(row, j);
            if self.arena.is_var(id) {
                if let Some(c) = self.var_count.get_mut(&id) {
                    *c = c.saturating_sub(1);
                    if *c == 0 {
                        self.var_count.remove(&id);
                        self.var_slots.remove(&id);
                    }
                }
            }
        }
    }

    /// The fingerprint of the atom at (table, row), read off the columns.
    fn fp_of(&self, t: u32, row: u32) -> AtomFp {
        let table = self.arena.table(t);
        let arity = table.key().1;
        if arity <= FP_INLINE {
            let mut inline = [0u32; FP_INLINE];
            for (j, cell) in inline.iter_mut().enumerate().take(arity) {
                *cell = table.cell(row, j);
            }
            AtomFp { table: t, len: arity as u8, inline, spill: None }
        } else {
            AtomFp {
                table: t,
                len: 0,
                inline: [0; FP_INLINE],
                spill: Some((0..arity).map(|j| table.cell(row, j)).collect()),
            }
        }
    }

    /// Applies the egd substitution `from → to` in place.
    ///
    /// Only slots whose atom actually mentions `from` are touched: their
    /// column cells are overwritten (no atom is cloned, rows keep their
    /// positions). Atoms that become duplicates of another live atom are
    /// deduplicated per `dedup`, keeping the earliest slot (matching the
    /// naive driver's whole-body `canonical_representation` after the
    /// step). Returns the predicates of every rewritten atom — the delta
    /// the scheduler uses to requeue affected dependencies.
    pub fn apply_rewrite(&mut self, from: Var, to: &Term, dedup: &DedupPolicy) -> Vec<Predicate> {
        let Some(from_id) = self.arena.lookup(&Term::Var(from)) else {
            return Vec::new();
        };
        let to_id = self.arena.intern(*to);
        let to_is_var = to.is_var();
        let Some(slots) = self.var_slots.remove(&from_id) else {
            return Vec::new();
        };
        let mut changed_preds: Vec<Predicate> = Vec::new();
        let mut touched: Vec<AtomFp> = Vec::new();
        for slot in slots {
            if !self.alive[slot] {
                continue; // stale entry from an earlier rewrite/kill
            }
            let (t, row) = self.slot_loc[slot];
            let arity = self.arena.table(t).key().1;
            let mut occurrences_of_from = 0usize;
            for j in 0..arity {
                if self.arena.table(t).cell(row, j) == from_id {
                    occurrences_of_from += 1;
                }
            }
            if occurrences_of_from == 0 {
                continue; // stale entry: an earlier rewrite removed `from`
            }
            // Unhook the old value from the occurrence map, then rewrite
            // the cells in place (bucket membership is untouched — the
            // predicate/arity key cannot change under a substitution).
            let old_fp = self.fp_of(t, row);
            if let Some(occ) = self.occurrences.get_mut(&old_fp) {
                occ.retain(|&s| s != slot);
                if occ.is_empty() {
                    self.occurrences.remove(&old_fp);
                }
            }
            for j in 0..arity {
                if self.arena.table(t).cell(row, j) == from_id {
                    self.arena.set_cell(t, row, j, to_id);
                }
            }
            if let Some(c) = self.var_count.get_mut(&from_id) {
                *c = c.saturating_sub(occurrences_of_from);
                if *c == 0 {
                    self.var_count.remove(&from_id);
                }
            }
            if to_is_var {
                *self.var_count.entry(to_id).or_insert(0) += occurrences_of_from;
                // A duplicate entry is harmless (stale entries are pruned
                // on read), so skip the O(n) membership test.
                self.var_slots.entry(to_id).or_default().push(slot);
            }
            let new_fp = self.fp_of(t, row);
            let pred = self.arena.table(t).key().0;
            self.occurrences.entry(new_fp.clone()).or_default().push(slot);
            if !changed_preds.contains(&pred) {
                changed_preds.push(pred);
            }
            touched.push(new_fp);
        }
        // Dedup pass over every value a rewritten slot now holds: keep the
        // earliest live slot, kill the rest (first occurrence wins, as in
        // the naive driver's canonical representation).
        for fp in touched {
            let pred = self.arena.table(fp.table).key().0;
            if !dedup.dedups(pred) {
                continue;
            }
            let Some(occ) = self.occurrences.get(&fp) else { continue };
            if occ.len() <= 1 {
                continue;
            }
            let keep = *occ.iter().min().expect("nonempty");
            let extras: Vec<usize> = occ.iter().copied().filter(|&s| s != keep).collect();
            for slot in extras {
                self.kill(slot);
            }
        }
        changed_preds
    }

    /// Materializes the current query given its (already substituted)
    /// head — a boundary conversion.
    pub fn to_query(&self, name: eqsql_cq::Symbol, head: Vec<Term>) -> CqQuery {
        CqQuery { name, head, body: self.to_body() }
    }

    /// Debug-only consistency check: every secondary structure agrees
    /// with a from-scratch rebuild of the materialized body.
    #[cfg(test)]
    fn check_invariants(&self) {
        let body = self.to_body();
        assert_eq!(body.len(), self.live);
        let fresh = BodyIndex::new(&body);
        // Per-table live rows hold the same atom sequences.
        for (slot, &(t, row)) in self.slot_loc.iter().enumerate() {
            if self.alive[slot] {
                assert!(
                    self.arena.table(t).live_rows().contains(&row),
                    "live slot {slot} not in live rows"
                );
            } else {
                assert!(
                    !self.arena.table(t).live_rows().contains(&row),
                    "dead slot {slot} still live"
                );
            }
        }
        let my_tables: Vec<Vec<Atom>> = {
            let mut v = Vec::new();
            for key in body.iter().map(Atom::key).collect::<std::collections::BTreeSet<_>>() {
                let t = self.arena.lookup_table(&key).unwrap();
                v.push(
                    self.arena
                        .table(t)
                        .live_rows()
                        .iter()
                        .map(|&r| self.arena.row_atom(t, r))
                        .collect(),
                );
            }
            v
        };
        let fresh_tables: Vec<Vec<Atom>> = {
            let mut v = Vec::new();
            for key in body.iter().map(Atom::key).collect::<std::collections::BTreeSet<_>>() {
                let t = fresh.arena.lookup_table(&key).unwrap();
                v.push(
                    fresh
                        .arena
                        .table(t)
                        .live_rows()
                        .iter()
                        .map(|&r| fresh.arena.row_atom(t, r))
                        .collect(),
                );
            }
            v
        };
        assert_eq!(my_tables, fresh_tables, "table contents diverged");
        // Variable counts agree (translated back to boxed vars).
        let mine: HashMap<Var, usize> = self
            .var_count
            .iter()
            .map(|(&id, &c)| (self.arena.term(id).as_var().expect("var id"), c))
            .collect();
        let theirs: HashMap<Var, usize> = fresh
            .var_count
            .iter()
            .map(|(&id, &c)| (fresh.arena.term(id).as_var().expect("var id"), c))
            .collect();
        assert_eq!(mine, theirs, "var_count diverged");
        for (fp, slots) in &self.occurrences {
            for &s in slots {
                assert!(self.alive[s], "occurrence holds dead slot");
                let (t, row) = self.slot_loc[s];
                assert_eq!(*fp, self.fp_of(t, row), "occurrence fingerprint stale");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqsql_cq::{parse_query, ArenaFrame, ArenaPlan};

    fn atoms(s: &str) -> Vec<Atom> {
        parse_query(s).unwrap().body
    }

    #[test]
    fn build_and_materialize_round_trips() {
        let body = atoms("q(X) :- p(X,Y), s(Y,Z), p(Z,X)");
        let ix = BodyIndex::new(&body);
        assert_eq!(ix.to_body(), body);
        assert_eq!(ix.len(), 3);
        assert!(ix.contains_var(Var::new("Y")));
        assert!(!ix.contains_var(Var::new("W")));
        ix.check_invariants();
    }

    #[test]
    fn insert_dedups_per_policy() {
        let body = atoms("q(X) :- p(X,Y)");
        let mut ix = BodyIndex::new(&body);
        let dup = body[0].clone();
        assert!(!ix.insert(&dup, &DedupPolicy::All));
        assert_eq!(ix.len(), 1);
        assert!(ix.insert(&dup, &DedupPolicy::None));
        assert_eq!(ix.len(), 2);
        ix.check_invariants();
    }

    #[test]
    fn rewrite_merges_and_dedups() {
        // s(X,A), s(X,B), r(A,B): A := B collapses the two s-atoms.
        let body = atoms("q(X) :- s(X,A), s(X,B), r(A,B)");
        let mut ix = BodyIndex::new(&body);
        let changed = ix.apply_rewrite(Var::new("A"), &Term::var("B"), &DedupPolicy::All);
        assert!(changed.contains(&Predicate::new("s")));
        assert!(changed.contains(&Predicate::new("r")));
        let out = ix.to_body();
        assert_eq!(out, atoms("q(X) :- s(X,B), r(B,B)"));
        assert!(!ix.contains_var(Var::new("A")));
        ix.check_invariants();
    }

    #[test]
    fn rewrite_to_constant() {
        let body = atoms("q(X) :- s(X,A), t(A,A)");
        let mut ix = BodyIndex::new(&body);
        ix.apply_rewrite(Var::new("A"), &Term::int(3), &DedupPolicy::All);
        assert_eq!(ix.to_body(), atoms("q(X) :- s(X,3), t(3,3)"));
        assert!(!ix.contains_var(Var::new("A")));
        ix.check_invariants();
    }

    #[test]
    fn rewrite_without_dedup_keeps_duplicates() {
        let body = atoms("q(X) :- u(X,A), u(X,B)");
        let mut ix = BodyIndex::new(&body);
        ix.apply_rewrite(Var::new("A"), &Term::var("B"), &DedupPolicy::None);
        assert_eq!(ix.to_body(), atoms("q(X) :- u(X,B), u(X,B)"));
        assert_eq!(ix.len(), 2);
        ix.check_invariants();
    }

    #[test]
    fn first_occurrence_survives_dedup() {
        // Rewriting the *first* atom into the value of the third must kill
        // the third (later) slot, not the rewritten one.
        let body = atoms("q(X) :- s(X,A), r(A,C), s(X,B)");
        let mut ix = BodyIndex::new(&body);
        ix.apply_rewrite(Var::new("A"), &Term::var("B"), &DedupPolicy::All);
        assert_eq!(ix.to_body(), atoms("q(X) :- s(X,B), r(B,C)"));
        ix.check_invariants();
    }

    #[test]
    fn chained_rewrites_stay_consistent() {
        let body = atoms("q(A) :- p(A,B), p(B,C), p(C,D), r(A,D)");
        let mut ix = BodyIndex::new(&body);
        ix.apply_rewrite(Var::new("B"), &Term::var("A"), &DedupPolicy::All);
        ix.check_invariants();
        ix.apply_rewrite(Var::new("C"), &Term::var("A"), &DedupPolicy::All);
        ix.check_invariants();
        ix.apply_rewrite(Var::new("D"), &Term::var("A"), &DedupPolicy::All);
        ix.check_invariants();
        // Everything collapsed onto p(A,A) and r(A,A).
        assert_eq!(ix.to_body(), atoms("q(A) :- p(A,A), r(A,A)"));
    }

    #[test]
    fn arena_search_runs_against_mutated_index() {
        let body = atoms("q(X) :- p(X,Y), p(Y,Z)");
        let mut ix = BodyIndex::new(&body);
        ix.apply_rewrite(Var::new("Z"), &Term::var("X"), &DedupPolicy::All);
        let pat = atoms("q(A) :- p(A,B), p(B,A)");
        let plan = ArenaPlan::new(&pat, ix.arena_mut());
        let mut frame = ArenaFrame::for_plan(&plan);
        assert!(plan.has_match(ix.arena(), &mut frame));
        ix.check_invariants();
    }

    #[test]
    fn contains_atom_and_foreign_terms() {
        let body = atoms("q(X) :- p(X,Y)");
        let ix = BodyIndex::new(&body);
        assert!(ix.contains_atom(&body[0]));
        // Never-interned terms / predicates can't be present (and must
        // not panic or intern).
        assert!(!ix.contains_atom(&atoms("q(X) :- p(X,3)")[0]));
        assert!(!ix.contains_atom(&atoms("q(X) :- zz(X,Y)")[0]));
    }
}
