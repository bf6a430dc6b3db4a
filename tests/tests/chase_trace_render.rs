//! Rendering the typed chase trace reproduces the string trace it replaced.
//!
//! `tests/fixtures/chase_trace_render.txt` holds the `[σi] dep — action
//! (body now n)` lines the engine used to build at every step, captured
//! before the trace became typed records. The same chases rendered with
//! [`eqsql_chase::ChaseTrace::render`] against the Σ each ran on must
//! match it byte for byte: tgds with existentials and an egd (Example
//! 4.1's set chase), the bag and bag-set sound chases rendered against
//! their regularized Σ, an egd failure, Example 4.6 and the Appendix-H
//! m=3 set chase.

use eqsql_chase::{set_chase, sound_chase, ChaseConfig, Chased};
use eqsql_cq::parse_query;
use eqsql_deps::{parse_dependencies, DependencySet};
use eqsql_gen::appendix_h::appendix_h_instance;
use eqsql_relalg::{Schema, Semantics};
use std::fmt::Write;

/// Σ of Example 4.1 (tgds σ1–σ4 and key egds σ7, σ8).
fn sigma_4_1() -> DependencySet {
    parse_dependencies(
        "p(X,Y) -> s(X,Z) & t(X,V,W).\n\
         p(X,Y) -> t(X,Y,W).\n\
         p(X,Y) -> r(X).\n\
         p(X,Y) -> u(X,Z) & t(X,Y,W).\n\
         s(X,Y) & s(X,Z) -> Y = Z.\n\
         t(X,Y,W1) & t(X,Y,W2) -> W1 = W2.",
    )
    .unwrap()
}

/// Example 4.1's schema: S and T set-valued (σ5, σ6 as schema flags).
fn schema_4_1() -> Schema {
    let mut s = Schema::all_bags(&[("p", 2), ("r", 1), ("s", 2), ("t", 3), ("u", 2)]);
    s.mark_set_valued(eqsql_cq::Predicate::new("s"));
    s.mark_set_valued(eqsql_cq::Predicate::new("t"));
    s
}

/// The fixture's chases: a label, the chase, and the Σ it ran on.
fn cases() -> Vec<(&'static str, Chased, DependencySet)> {
    let cfg = ChaseConfig::default();
    let q4 = parse_query("q4(X) :- p(X,Y)").unwrap();
    let mut out = vec![(
        "example 4.1: set chase of q4",
        set_chase(&q4, &sigma_4_1(), &cfg).unwrap(),
        sigma_4_1(),
    )];
    for (label, sem) in [
        ("example 4.1: bag sound chase of q4", Semantics::Bag),
        ("example 4.1: bag-set sound chase of q4", Semantics::BagSet),
    ] {
        let r = sound_chase(sem, &q4, &sigma_4_1(), &schema_4_1(), &cfg).unwrap();
        out.push((label, r.chased, (*r.sigma_regularized).clone()));
    }
    let key = parse_dependencies("s(X,Y) & s(X,Z) -> Y = Z.").unwrap();
    let fail = parse_query("q(X) :- s(X,3), s(X,4)").unwrap();
    out.push(("egd failure", set_chase(&fail, &key, &cfg).unwrap(), key));
    let ex46 = parse_dependencies(
        "p(X,Y) -> s(X,Z) & t(Z,Y).\n\
         t(X,Y) & t(Z,Y) -> X = Z.",
    )
    .unwrap();
    let q46 = parse_query("q(X) :- p(X,Y), s(X,Z)").unwrap();
    out.push(("example 4.6", set_chase(&q46, &ex46, &cfg).unwrap(), ex46));
    let h = appendix_h_instance(3);
    let hcfg = ChaseConfig { max_steps: 20_000, max_atoms: 20_000 };
    out.push(("appendix H m=3: set chase", set_chase(&h.query, &h.sigma, &hcfg).unwrap(), h.sigma));
    out
}

#[test]
fn rendered_trace_matches_the_string_trace_byte_for_byte() {
    let mut out = String::new();
    for (label, c, sigma) in cases() {
        writeln!(out, "== {label} ({} steps, failed={})", c.steps, c.failed).unwrap();
        for line in c.trace.render(&sigma) {
            writeln!(out, "{line}").unwrap();
        }
    }
    let expected = include_str!("../fixtures/chase_trace_render.txt");
    assert_eq!(out, expected);
}
