//! Homomorphism-search benchmarks: the planned, trail-based matcher
//! against the naive backtracking oracle, on the shapes the chase
//! actually produces.
//!
//! * `hom_search/appendix_h/{planned,reference}/m=…`: premise searches of
//!   the Appendix H family's dependencies against the (exponential)
//!   terminal chase body — the boxed [`MatchPlan`] that the one-shot
//!   callers (containment, satisfaction, implication) use, one compiled
//!   plan reused across every dependency check vs a per-call
//!   `HashMap`-backed backtrack. The chase engine's own search layer is
//!   the arena matcher, timed by the `arena/*/columnar` rows of the
//!   `arena` bench.
//! * `hom_search/chain/{indexed,reference}/n=…`: the non-weakly-acyclic
//!   budget-exhaustion chain `e(X,Y) -> e(Y,Z)` chased for `n` steps, the
//!   indexed engine against the reference driver. The applicable
//!   homomorphism always lives at the newest atom, so both rescan the
//!   chain on every step (`scripts/bench_snapshot.sh` snapshots this into
//!   `BENCH_chase.json`'s `hom_search` section).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eqsql_chase::reference::set_chase_reference;
use eqsql_chase::{set_chase, ChaseConfig};
use eqsql_cq::matcher::{bucket_atoms, reference, MatchPlan, Seed, Target};
use eqsql_cq::{parse_query, Subst};
use eqsql_gen::appendix_h_instance;
use std::hint::black_box;

fn bench_appendix_h_search(c: &mut Criterion) {
    let cfg = ChaseConfig { max_steps: 50_000, max_atoms: 50_000 };
    let mut group = c.benchmark_group("hom_search/appendix_h");
    group.sample_size(10);
    for m in [3usize, 4, 5] {
        let inst = appendix_h_instance(m);
        let terminal = set_chase(&inst.query, &inst.sigma, &cfg).unwrap().query;
        let premises: Vec<&[eqsql_cq::Atom]> = inst.sigma.iter().map(|d| d.lhs()).collect();
        let plans: Vec<MatchPlan> = premises.iter().map(|p| MatchPlan::new(p)).collect();
        let buckets = bucket_atoms(&terminal.body);
        group.bench_with_input(BenchmarkId::new("planned", m), &terminal, |b, t| {
            b.iter(|| {
                let target = Target::new(&t.body, &buckets);
                let mut found = 0usize;
                for plan in &plans {
                    if plan.first_match(target, &Seed::Empty).is_some() {
                        found += 1;
                    }
                }
                black_box(found)
            })
        });
        group.bench_with_input(BenchmarkId::new("reference", m), &terminal, |b, t| {
            b.iter(|| {
                let mut found = 0usize;
                for p in &premises {
                    if reference::extend_homomorphism(p, &t.body, &Subst::new()).is_some() {
                        found += 1;
                    }
                }
                black_box(found)
            })
        });
    }
    group.finish();
}

fn bench_chain_budget(c: &mut Criterion) {
    let q = parse_query("q(X) :- e(X,Y)").unwrap();
    let sigma = eqsql_deps::parse_dependencies("e(X,Y) -> e(Y,Z).").unwrap();
    let mut group = c.benchmark_group("hom_search/chain");
    group.sample_size(10);
    for n in [32usize, 64, 128] {
        let cfg = ChaseConfig { max_steps: n, max_atoms: 1_000_000 };
        group.bench_with_input(BenchmarkId::new("indexed", n), &cfg, |b, cfg| {
            b.iter(|| {
                let err = set_chase(black_box(&q), &sigma, cfg).unwrap_err();
                black_box(err)
            })
        });
        group.bench_with_input(BenchmarkId::new("reference", n), &cfg, |b, cfg| {
            b.iter(|| {
                let err = set_chase_reference(black_box(&q), &sigma, cfg).unwrap_err();
                black_box(err)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_appendix_h_search, bench_chain_budget);
criterion_main!(benches);
