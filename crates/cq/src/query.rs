//! Safe conjunctive queries.

use crate::atom::{Atom, Predicate};
use crate::subst::Subst;
use crate::symbol::Symbol;
use crate::term::{Term, Var};
use std::collections::HashSet;
use std::fmt;

/// A conjunctive query `name(head) :- body` (§2.1 of the paper).
///
/// The body is a **multiset** of atoms: duplicate subgoals are kept and are
/// semantically significant under bag and bag-set semantics (Example 4.9 /
/// Theorem 4.2 of the paper). Nothing in this crate deduplicates implicitly;
/// use [`crate::iso::canonical_representation`] for the set-semantics view.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CqQuery {
    /// The query (head predicate) name.
    pub name: Symbol,
    /// Head terms — the output tuple.
    pub head: Vec<Term>,
    /// Body atoms (a multiset).
    pub body: Vec<Atom>,
}

impl CqQuery {
    /// Builds a query. Does not check safety; see [`CqQuery::is_safe`].
    pub fn new(name: &str, head: Vec<Term>, body: Vec<Atom>) -> CqQuery {
        CqQuery { name: Symbol::new(name), head, body }
    }

    /// Head variables in order of first occurrence, without repeats.
    pub fn head_vars(&self) -> Vec<Var> {
        let mut seen = HashSet::new();
        self.head.iter().filter_map(Term::as_var).filter(|v| seen.insert(*v)).collect()
    }

    /// Body variables in order of first occurrence, without repeats.
    pub fn body_vars(&self) -> Vec<Var> {
        let mut seen = HashSet::new();
        self.body
            .iter()
            .flat_map(|a| a.args.iter())
            .filter_map(Term::as_var)
            .filter(|v| seen.insert(*v))
            .collect()
    }

    /// All variables (head then body), without repeats.
    pub fn all_vars(&self) -> Vec<Var> {
        let mut seen = HashSet::new();
        self.head
            .iter()
            .chain(self.body.iter().flat_map(|a| a.args.iter()))
            .filter_map(Term::as_var)
            .filter(|v| seen.insert(*v))
            .collect()
    }

    /// A query is safe iff every head variable appears in the body and the
    /// body is nonempty.
    pub fn is_safe(&self) -> bool {
        if self.body.is_empty() {
            return false;
        }
        let body: HashSet<Var> = self.body_vars().into_iter().collect();
        self.head_vars().iter().all(|v| body.contains(v))
    }

    /// The distinct predicate/arity pairs used in the body, in
    /// first-occurrence order — deterministic, so callers that try one
    /// relation after another (the bag-semantics witness searches) pick
    /// the same one on every call.
    pub fn predicates(&self) -> Vec<(Predicate, usize)> {
        let mut keys: Vec<(Predicate, usize)> = Vec::new();
        for key in self.body.iter().map(Atom::key) {
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        keys
    }

    /// Number of body atoms with the given predicate (any arity).
    pub fn count_pred(&self, pred: Predicate) -> usize {
        self.body.iter().filter(|a| a.pred == pred).count()
    }

    /// Applies a substitution to head and body.
    pub fn apply(&self, s: &Subst) -> CqQuery {
        CqQuery {
            name: self.name,
            head: self.head.iter().map(|t| s.apply_term(t)).collect(),
            body: s.apply_atoms(&self.body),
        }
    }

    /// Renames all variables of `self` so that they are disjoint from
    /// `avoid`, drawing fresh names from `supply`. Returns the renamed query
    /// and the renaming used.
    pub fn rename_apart(&self, avoid: &HashSet<Var>, supply: &mut VarSupply) -> (CqQuery, Subst) {
        let mut s = Subst::new();
        for v in self.all_vars() {
            if avoid.contains(&v) {
                let fresh = supply.fresh(v.name());
                s.set(v, Term::Var(fresh));
            }
        }
        (self.apply(&s), s)
    }

    /// Total size: number of body atoms.
    pub fn size(&self) -> usize {
        self.body.len()
    }
}

impl fmt::Display for CqQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, t) in self.head.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ") :- ")?;
        for (i, a) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

/// A deterministic supply of fresh variables that avoids a recorded set of
/// used names. Chase steps and query renamings draw from one of these so
/// output is reproducible.
#[derive(Clone, Debug, Default)]
pub struct VarSupply {
    used: HashSet<Symbol>,
    counter: u64,
}

impl VarSupply {
    /// A supply avoiding every variable of the given queries.
    pub fn avoiding<'a>(queries: impl IntoIterator<Item = &'a CqQuery>) -> VarSupply {
        let mut s = VarSupply::default();
        for q in queries {
            s.record_query(q);
        }
        s
    }

    /// Records the variables of `q` as used.
    pub fn record_query(&mut self, q: &CqQuery) {
        for v in q.all_vars() {
            self.used.insert(v.0);
        }
    }

    /// Marks a single variable as used.
    pub fn record_var(&mut self, v: Var) {
        self.used.insert(v.0);
    }

    /// Produces a fresh variable whose name starts with `hint`.
    pub fn fresh(&mut self, hint: &str) -> Var {
        loop {
            self.counter += 1;
            let name = format!("{hint}_{}", self.counter);
            let sym = Symbol::new(&name);
            if self.used.insert(sym) {
                return Var(sym);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q1() -> CqQuery {
        CqQuery::new(
            "q",
            vec![Term::var("X")],
            vec![
                Atom::new("p", vec![Term::var("X"), Term::var("Y")]),
                Atom::new("s", vec![Term::var("X"), Term::var("Z")]),
            ],
        )
    }

    #[test]
    fn safety() {
        assert!(q1().is_safe());
        let unsafe_q = CqQuery::new(
            "q",
            vec![Term::var("W")],
            vec![Atom::new("p", vec![Term::var("X"), Term::var("Y")])],
        );
        assert!(!unsafe_q.is_safe());
        let empty = CqQuery::new("q", vec![], vec![]);
        assert!(!empty.is_safe());
    }

    #[test]
    fn var_collection_is_ordered_and_unique() {
        let q = q1();
        assert_eq!(q.body_vars(), vec![Var::new("X"), Var::new("Y"), Var::new("Z")]);
        assert_eq!(q.head_vars(), vec![Var::new("X")]);
    }

    #[test]
    fn display() {
        assert_eq!(q1().to_string(), "q(X) :- p(X, Y), s(X, Z)");
    }

    #[test]
    fn rename_apart_avoids_collisions() {
        let q = q1();
        let avoid: HashSet<Var> = [Var::new("X"), Var::new("Y")].into_iter().collect();
        let mut supply = VarSupply::avoiding([&q]);
        let (r, s) = q.rename_apart(&avoid, &mut supply);
        assert_eq!(s.len(), 2);
        let rv: HashSet<Var> = r.all_vars().into_iter().collect();
        assert!(!rv.contains(&Var::new("X")));
        assert!(!rv.contains(&Var::new("Y")));
        assert!(rv.contains(&Var::new("Z"))); // untouched
        assert!(r.is_safe());
    }

    #[test]
    fn fresh_vars_never_repeat() {
        let mut s = VarSupply::default();
        let a = s.fresh("V");
        let b = s.fresh("V");
        assert_ne!(a, b);
    }

    #[test]
    fn count_pred_counts_duplicates() {
        let mut q = q1();
        q.body.push(Atom::new("p", vec![Term::var("X"), Term::var("Y")]));
        assert_eq!(q.count_pred(Predicate::new("p")), 2);
        assert_eq!(q.count_pred(Predicate::new("s")), 1);
    }

    #[test]
    fn predicates_follow_first_occurrence_body_order() {
        let q =
            crate::parser::parse_query("q(X) :- d(X), b(X,Y), d(Y), a(X), b(Y,X), b(X)").unwrap();
        let key = |name: &str, arity: usize| (Predicate::new(name), arity);
        let expected = vec![key("d", 1), key("b", 2), key("a", 1), key("b", 1)];
        for _ in 0..8 {
            assert_eq!(q.predicates(), expected);
        }
    }
}
