//! Shared fixtures for benchmarks and the experiments binary.

#![forbid(unsafe_code)]

pub mod workloads;

use eqsql_deps::{parse_dependencies, DependencySet};
use eqsql_relalg::Schema;

/// Σ of Example 4.1 (tgds σ1–σ4, key egds σ7/σ8).
pub fn sigma_4_1() -> DependencySet {
    parse_dependencies(
        "p(X,Y) -> s(X,Z) & t(X,V,W).\n\
         p(X,Y) -> t(X,Y,W).\n\
         p(X,Y) -> r(X).\n\
         p(X,Y) -> u(X,Z) & t(X,Y,W).\n\
         s(X,Y) & s(X,Z) -> Y = Z.\n\
         t(X,Y,W1) & t(X,Y,W2) -> W1 = W2.",
    )
    .expect("Σ parses")
}

/// Schema of Example 4.1 with S, T set-enforced.
pub fn schema_4_1() -> Schema {
    let mut s = Schema::all_bags(&[("p", 2), ("r", 1), ("s", 2), ("t", 3), ("u", 2)]);
    s.mark_set_valued(eqsql_cq::Predicate::new("s"));
    s.mark_set_valued(eqsql_cq::Predicate::new("t"));
    s
}
