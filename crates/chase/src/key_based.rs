//! Key-based tgds (Definition 5.1 of the paper — the UWDs of Deutsch \[9\]).
//!
//! A tgd `σ : φ(X̄, Ȳ) → ∃Z̄ ψ(Ȳ, Z̄)` is **key-based** when, for every
//! conclusion atom `p(Ȳ'_j, Z̄'_j)`, the positions holding universally
//! quantified terms form a superkey of `P` *and* `P` is set-valued on all
//! instances. Key-basedness is query-independent and implies that every
//! chase step using the tgd is assignment-fixing; the converse fails
//! (Example 4.8 / §5.1), which is why the paper's sound chase uses the
//! strictly more general assignment-fixing criterion. We keep key-basedness
//! for comparison and for the ablation benchmarks.

use crate::engine::{chase_indexed, Admission, EngineOpts};
use crate::error::{ChaseConfig, ChaseError};
use crate::set_chase::Chased;
use crate::step::DedupPolicy;
use eqsql_cq::{CqQuery, Predicate, Term};
use eqsql_deps::keys::is_superkey_of;
use eqsql_deps::regularize::regularize_set;
use eqsql_deps::{DependencySet, Tgd};
use eqsql_relalg::Schema;
use std::collections::{BTreeSet, HashSet};

/// Do all conclusion atoms of `tgd` have their universal positions forming
/// a superkey (under the fd-shaped egds of Σ)? This is Definition 5.1
/// minus the set-valuedness requirement.
pub fn has_key_based_shape(tgd: &Tgd, sigma: &DependencySet) -> bool {
    let uni = tgd.universal_vars();
    tgd.rhs.iter().all(|atom| {
        let positions: BTreeSet<usize> = atom
            .args
            .iter()
            .enumerate()
            .filter(|(_, t)| match t {
                Term::Const(_) => true,
                Term::Var(v) => uni.contains(v),
            })
            .map(|(i, _)| i)
            .collect();
        is_superkey_of(sigma, atom.pred, atom.arity(), &positions)
    })
}

/// Is `tgd` key-based (Definition 5.1): key-based shape **and** every
/// conclusion relation set-valued on all instances of the schema?
pub fn is_key_based(tgd: &Tgd, sigma: &DependencySet, schema: &Schema) -> bool {
    tgd.rhs.iter().all(|a| schema.is_set_valued(a.pred)) && has_key_based_shape(tgd, sigma)
}

/// The key-based (UWD) chase: a thin entry point over the incremental
/// engine admitting only key-based tgd steps — Deutsch's query-independent
/// ablation of the paper's sound bag chase. Strictly fewer steps fire than
/// under assignment-fixing admission (Example 4.8), which is the point of
/// keeping it: the ablation benchmarks measure exactly that gap.
///
/// Key-basedness is a property of the dependency alone, so the filter runs
/// as [`Admission::QueryIndependent`]: one cached verdict per dependency,
/// and rejected tgds retire from the worklist permanently.
pub fn key_based_chase(
    q: &CqQuery,
    sigma: &DependencySet,
    schema: &Schema,
    config: &ChaseConfig,
) -> Result<Chased, ChaseError> {
    let sigma_reg = regularize_set(sigma);
    let set_preds: HashSet<Predicate> = schema.set_valued_relations().into_iter().collect();
    chase_indexed(
        q,
        &sigma_reg,
        config,
        &DedupPolicy::SetValuedOnly(set_preds),
        Admission::QueryIndependent(&mut |tgd| is_key_based(tgd, &sigma_reg, schema)),
        &EngineOpts::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqsql_deps::parse_dependencies;
    use eqsql_relalg::Schema;

    fn first_tgd(s: &DependencySet) -> Tgd {
        s.tgds().next().unwrap().clone()
    }

    #[test]
    fn example_4_1_sigma2_is_key_based() {
        // σ2: p(X,Y) -> t(X,Y,W); first two attributes of T are a key and
        // T is set-valued.
        let sigma = parse_dependencies(
            "p(X,Y) -> t(X,Y,W).\n\
             t(X,Y,W1) & t(X,Y,W2) -> W1 = W2.",
        )
        .unwrap();
        let mut schema = Schema::all_bags(&[("p", 2), ("t", 3)]);
        schema.mark_set_valued(eqsql_cq::Predicate::new("t"));
        let t = first_tgd(&sigma);
        assert!(has_key_based_shape(&t, &sigma));
        assert!(is_key_based(&t, &sigma, &schema));
    }

    #[test]
    fn set_valuedness_is_required() {
        let sigma = parse_dependencies(
            "p(X,Y) -> t(X,Y,W).\n\
             t(X,Y,W1) & t(X,Y,W2) -> W1 = W2.",
        )
        .unwrap();
        let schema = Schema::all_bags(&[("p", 2), ("t", 3)]); // t is a bag
        let t = first_tgd(&sigma);
        assert!(has_key_based_shape(&t, &sigma));
        assert!(!is_key_based(&t, &sigma, &schema));
    }

    #[test]
    fn example_4_8_nu1_is_not_key_based() {
        // ν1: p(X,Y) -> ∃Z s(X,Z) ∧ t(Z,Y). The S-atom's universal
        // positions {0} are not a superkey of S in presence of Σ — ν1 is
        // assignment-fixing but NOT key-based (Note on Example 4.8).
        let sigma = parse_dependencies(
            "p(X,Y) -> s(X,Z) & t(Z,Y).\n\
             t(X,Y) & t(Z,Y) -> X = Z.",
        )
        .unwrap();
        let mut schema = Schema::all_bags(&[("p", 2), ("s", 2), ("t", 2)]);
        schema.mark_set_valued(eqsql_cq::Predicate::new("s"));
        schema.mark_set_valued(eqsql_cq::Predicate::new("t"));
        let nu1 = first_tgd(&sigma);
        assert!(!has_key_based_shape(&nu1, &sigma));
        assert!(!is_key_based(&nu1, &sigma, &schema));
    }

    #[test]
    fn full_tgd_over_set_relation_is_key_based() {
        // Every position universal: the full attribute set is always a
        // superkey.
        let sigma = parse_dependencies("r(X,Y) -> p(X,Y).").unwrap();
        let mut schema = Schema::all_bags(&[("r", 2), ("p", 2)]);
        schema.mark_set_valued(eqsql_cq::Predicate::new("p"));
        let t = first_tgd(&sigma);
        assert!(is_key_based(&t, &sigma, &schema));
    }

    #[test]
    fn key_based_chase_is_strictly_weaker_on_example_4_8() {
        // ν1 is assignment-fixing but not key-based: the key-based chase
        // leaves Q untouched where the sound bag chase fires (Example 4.8).
        use eqsql_cq::{are_isomorphic, parse_query};
        let sigma = parse_dependencies(
            "p(X,Y) -> s(X,Z) & t(Z,Y).\n\
             t(X,Y) & t(Z,Y) -> X = Z.",
        )
        .unwrap();
        let mut schema = Schema::all_bags(&[("p", 2), ("s", 2), ("t", 2)]);
        schema.mark_set_valued(eqsql_cq::Predicate::new("s"));
        schema.mark_set_valued(eqsql_cq::Predicate::new("t"));
        let q = parse_query("q(X) :- p(X,Y), s(X,Z)").unwrap();
        let r = key_based_chase(&q, &sigma, &schema, &crate::ChaseConfig::default()).unwrap();
        assert!(are_isomorphic(&r.query, &q), "got {}", r.query);
        assert_eq!(r.steps, 0);
    }

    #[test]
    fn key_based_chase_fires_key_based_steps() {
        use eqsql_cq::parse_query;
        let sigma = parse_dependencies(
            "p(X,Y) -> t(X,Y,W).\n\
             t(X,Y,W1) & t(X,Y,W2) -> W1 = W2.",
        )
        .unwrap();
        let mut schema = Schema::all_bags(&[("p", 2), ("t", 3)]);
        schema.mark_set_valued(eqsql_cq::Predicate::new("t"));
        let q = parse_query("q(X) :- p(X,Y)").unwrap();
        let r = key_based_chase(&q, &sigma, &schema, &crate::ChaseConfig::default()).unwrap();
        assert_eq!(r.query.body.len(), 2);
        assert_eq!(r.steps, 1);
    }

    #[test]
    fn constants_count_as_determined_positions() {
        let sigma = parse_dependencies(
            "p(X) -> t(X, 3, W).\n\
             t(X,Y,W1) & t(X,Y,W2) -> W1 = W2.",
        )
        .unwrap();
        let mut schema = Schema::all_bags(&[("p", 1), ("t", 3)]);
        schema.mark_set_valued(eqsql_cq::Predicate::new("t"));
        assert!(is_key_based(&first_tgd(&sigma), &sigma, &schema));
    }
}
