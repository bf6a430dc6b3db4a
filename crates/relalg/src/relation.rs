//! Bag-valued relations.
//!
//! A relation is a bag of tuples: a *core-set* of distinct tuples with a
//! positive multiplicity attached to each (§2.1 of the paper). A relation is
//! *set-valued* when every multiplicity is 1.
//!
//! Tuples are kept sorted, so every scan of a relation runs in ascending
//! tuple order: evaluation and the instance chase visit the same tuples in
//! the same order on every call.

use crate::tuple::Tuple;
use std::collections::BTreeMap;
use std::fmt;

/// A bag of tuples of a fixed arity.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Relation {
    arity: usize,
    tuples: BTreeMap<Tuple, u64>,
}

impl Relation {
    /// An empty relation of the given arity.
    pub fn new(arity: usize) -> Relation {
        Relation { arity, tuples: BTreeMap::new() }
    }

    /// Builds a set-valued relation from distinct tuples (duplicates in the
    /// input accumulate multiplicity, making it bag-valued).
    pub fn from_tuples(arity: usize, tuples: impl IntoIterator<Item = Tuple>) -> Relation {
        let mut r = Relation::new(arity);
        for t in tuples {
            r.insert(t, 1);
        }
        r
    }

    /// The arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Inserts `mult` copies of `tuple`.
    ///
    /// # Panics
    /// If the tuple arity mismatches or `mult == 0`.
    pub fn insert(&mut self, tuple: Tuple, mult: u64) {
        assert_eq!(tuple.arity(), self.arity, "tuple arity mismatch");
        assert!(mult > 0, "multiplicity must be positive");
        *self.tuples.entry(tuple).or_insert(0) += mult;
    }

    /// Removes all copies of `tuple`, returning the removed multiplicity.
    pub fn remove(&mut self, tuple: &Tuple) -> u64 {
        self.tuples.remove(tuple).unwrap_or(0)
    }

    /// Multiplicity of `tuple` (0 when absent).
    pub fn multiplicity(&self, tuple: &Tuple) -> u64 {
        self.tuples.get(tuple).copied().unwrap_or(0)
    }

    /// Does the bag contain `tuple` at all?
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.tuples.contains_key(tuple)
    }

    /// Size of the core-set (number of distinct tuples).
    pub fn core_len(&self) -> usize {
        self.tuples.len()
    }

    /// Total bag cardinality (sum of multiplicities).
    pub fn len(&self) -> u64 {
        self.tuples.values().sum()
    }

    /// Is the bag empty?
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Is the relation set-valued (cardinality equals core-set size)?
    pub fn is_set_valued(&self) -> bool {
        self.tuples.values().all(|&m| m == 1)
    }

    /// Iterates over `(tuple, multiplicity)` pairs in ascending tuple
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, u64)> + '_ {
        self.tuples.iter().map(|(t, m)| (t, *m))
    }

    /// The core-set as an iterator of distinct tuples, in ascending order.
    pub fn core_set(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.tuples.keys()
    }

    /// A set-valued copy (all multiplicities forced to 1).
    pub fn to_set(&self) -> Relation {
        Relation { arity: self.arity, tuples: self.tuples.keys().map(|t| (t.clone(), 1)).collect() }
    }

    /// The `(tuple, multiplicity)` pairs in ascending tuple order.
    pub fn sorted(&self) -> Vec<(Tuple, u64)> {
        self.tuples.iter().map(|(t, m)| (t.clone(), *m)).collect()
    }

    /// Bag projection on `positions` (Appendix E.1): each copy of each tuple
    /// contributes one projected copy.
    pub fn project(&self, positions: &[usize]) -> Relation {
        let mut out = Relation::new(positions.len());
        for (t, m) in self.iter() {
            out.insert(t.project(positions), m);
        }
        out
    }
}

// `Display` writes `{{t1, t1, t2}}`-style bag notation, matching the paper.
impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{{")?;
        let mut first = true;
        for (t, m) in self.iter() {
            for _ in 0..m {
                if !first {
                    write!(f, ", ")?;
                }
                first = false;
                write!(f, "{t}")?;
            }
        }
        write!(f, "}}}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bag_multiplicities_accumulate() {
        let mut r = Relation::new(2);
        r.insert(Tuple::ints([1, 2]), 1);
        r.insert(Tuple::ints([1, 2]), 2);
        assert_eq!(r.multiplicity(&Tuple::ints([1, 2])), 3);
        assert_eq!(r.len(), 3);
        assert_eq!(r.core_len(), 1);
        assert!(!r.is_set_valued());
    }

    #[test]
    fn set_valued_detection() {
        let r = Relation::from_tuples(1, [Tuple::ints([1]), Tuple::ints([2])]);
        assert!(r.is_set_valued());
    }

    #[test]
    fn to_set_flattens() {
        let mut r = Relation::new(1);
        r.insert(Tuple::ints([5]), 4);
        let s = r.to_set();
        assert!(s.is_set_valued());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn bag_projection_keeps_duplicates() {
        let mut r = Relation::new(2);
        r.insert(Tuple::ints([1, 2]), 1);
        r.insert(Tuple::ints([1, 3]), 1);
        let p = r.project(&[0]);
        assert_eq!(p.multiplicity(&Tuple::ints([1])), 2);
    }

    #[test]
    fn display_is_bag_notation() {
        let mut r = Relation::new(1);
        r.insert(Tuple::ints([1]), 2);
        assert_eq!(r.to_string(), "{{(1), (1)}}");
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let mut r = Relation::new(2);
        r.insert(Tuple::ints([1]), 1);
    }
}
