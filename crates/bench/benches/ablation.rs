//! Ablations of two design choices:
//!
//! * **regularization**: chasing with the regularized Σ vs the raw Σ — the
//!   sound bag chase finds strictly more sound steps when Σ is
//!   regularized (Example 4.4/4.5), at a small regularization cost;
//! * **admission criterion**: assignment-fixing (the paper's, Def 4.3) vs
//!   key-basedness (Deutsch's UWDs, Def 5.1) — the key-based filter is
//!   cheaper per step but strictly weaker (misses Example 4.8's step).

use criterion::{criterion_group, criterion_main, Criterion};
use eqsql_chase::assignment_fixing::is_assignment_fixing_wrt_query;
use eqsql_chase::{is_key_based, sound_chase, ChaseConfig};
use eqsql_core::Semantics;
use eqsql_cq::parse_query;
use eqsql_deps::parse_dependencies;
use eqsql_deps::regularize::regularize_set;
use eqsql_relalg::Schema;
use std::hint::black_box;

fn bench_regularization(c: &mut Criterion) {
    let sigma = eqsql_bench::sigma_4_1();
    let mut group = c.benchmark_group("ablation/regularize");
    group.bench_function("regularize_set", |b| {
        b.iter(|| black_box(regularize_set(black_box(&sigma)).len()))
    });
    // Sound bag chase (regularizes internally) of Q4 — the baseline the
    // non-regularized variant cannot match (it would miss the t-subgoal).
    let q4 = parse_query("q4(X) :- p(X,Y)").unwrap();
    let schema = eqsql_bench::schema_4_1();
    let cfg = ChaseConfig::default();
    group.bench_function("sound_bag_chase_q4", |b| {
        b.iter(|| {
            let r = sound_chase(Semantics::Bag, black_box(&q4), &sigma, &schema, &cfg).unwrap();
            black_box(r.query.body.len())
        })
    });
    group.finish();
}

fn bench_admission_criteria(c: &mut Criterion) {
    // ν1 of Example 4.8: assignment-fixing but NOT key-based. Measure the
    // cost of each verdict.
    let sigma = parse_dependencies(
        "p(X,Y) -> s(X,Z) & t(Z,Y).\n\
         t(X,Y) & t(Z,Y) -> X = Z.",
    )
    .unwrap();
    let mut schema = Schema::all_bags(&[("p", 2), ("s", 2), ("t", 2)]);
    schema.mark_set_valued(eqsql_cq::Predicate::new("s"));
    schema.mark_set_valued(eqsql_cq::Predicate::new("t"));
    let q = parse_query("q(X) :- p(X,Y), s(X,Z)").unwrap();
    let nu1 = sigma.tgds().next().unwrap().clone();
    let cfg = ChaseConfig::default();

    let mut group = c.benchmark_group("ablation/admission");
    group.bench_function("assignment_fixing_check", |b| {
        b.iter(|| {
            let v = is_assignment_fixing_wrt_query(black_box(&q), &sigma, &nu1, &cfg).unwrap();
            assert_eq!(v, Some(true)); // the paper's criterion admits it
            black_box(v)
        })
    });
    group.bench_function("key_based_check", |b| {
        b.iter(|| {
            let v = is_key_based(black_box(&nu1), &sigma, &schema);
            assert!(!v); // the UWD criterion misses it
            black_box(v)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_regularization, bench_admission_criteria);
criterion_main!(benches);
