//! Shared fixtures for the integration test suite.
//!
//! The tests in `tests/` reproduce, end to end and at the public-API
//! level, every worked example of Chirkova & Genesereth (PODS 2009):
//! `tests/paper_examples.rs` holds one test per example, each labelled
//! with its experiment id in its doc line.

use eqsql_deps::{parse_dependencies, DependencySet};
use eqsql_relalg::Schema;

/// Σ of Example 4.1: tgds σ1–σ4 plus the key egds σ7 (first attribute of
/// S) and σ8 (first two attributes of T). The set-enforcing constraints
/// σ5/σ6 are carried by the schema flags (Appendix C).
pub fn sigma_4_1() -> DependencySet {
    parse_dependencies(
        "p(X,Y) -> s(X,Z) & t(X,V,W).\n\
         p(X,Y) -> t(X,Y,W).\n\
         p(X,Y) -> r(X).\n\
         p(X,Y) -> u(X,Z) & t(X,Y,W).\n\
         s(X,Y) & s(X,Z) -> Y = Z.\n\
         t(X,Y,W1) & t(X,Y,W2) -> W1 = W2.",
    )
    .expect("Example 4.1's Σ parses")
}

/// The schema of Example 4.1 with S and T set-enforced.
pub fn schema_4_1() -> Schema {
    let mut s = Schema::all_bags(&[("p", 2), ("r", 1), ("s", 2), ("t", 3), ("u", 2)]);
    s.mark_set_valued(eqsql_cq::Predicate::new("s"));
    s.mark_set_valued(eqsql_cq::Predicate::new("t"));
    s
}
