//! Batched Σ-equivalence service: cold vs warm chase-result cache.
//!
//! Workload: the C&B-style repeated-subquery stream on Example 4.1 — every
//! safe subquery of Q1's universal-plan body paired against Q4 (under set
//! and bag-set semantics), plus an α-renamed copy of each pair. This is
//! exactly what the backchase issues: many structurally overlapping
//! candidates re-chased over one fixed Σ, with Q4 recurring in every pair.
//!
//! * `cold/<threads>` — fresh cache per iteration: every distinct α-class
//!   is chased once, repeats within the batch already hit.
//! * `warm/<threads>` — cache pre-populated by an untimed run: the batch
//!   is served entirely from canonical-key lookups + replay.
//! * `not_equivalent_warm/1` — one `Solver` thread deciding the
//!   `NotEquivalent` pairs of the served `equiv_batch.req` fixture after an
//!   untimed warming pass. Every chase is a cache hit, so the row times
//!   the evidence layer: the separating-database search and its replay.
//!
//! `scripts/bench_snapshot.sh` records both medians and their ratio in
//! `BENCH_chase.json` (`batch_speedups`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eqsql_bench::workloads::{repeated_subquery_pairs, workload_schema, workload_sigma};
use eqsql_chase::ChaseConfig;
use eqsql_service::{parse_request_file, Answer, Solver, SolverBuilder};
use std::hint::black_box;

fn bench_equiv_batch(c: &mut Criterion) {
    let sigma = workload_sigma();
    let schema = workload_schema();
    let config = ChaseConfig::default();
    let pairs = repeated_subquery_pairs();
    // Boolean verdicts only: the cold/warm rows time chases and cache
    // probes, not the separating-database search.
    let builder = |threads: usize| -> SolverBuilder {
        Solver::builder(sigma.clone(), schema.clone())
            .chase_config(config)
            .counterexamples(false)
            .threads(threads)
    };
    let mut group = c.benchmark_group("equiv_batch/cnb_repeated");
    group.sample_size(10);
    for threads in [1usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("cold", threads), &threads, |b, &t| {
            b.iter(|| black_box(builder(t).build().decide_all(&pairs)))
        });
        let warm = builder(threads).build();
        warm.decide_all(&pairs); // populate the cache, untimed
        group.bench_with_input(BenchmarkId::new("warm", threads), &threads, |b, _| {
            b.iter(|| black_box(warm.decide_all(&pairs)))
        });
    }
    let file = parse_request_file(include_str!("../../service/fixtures/equiv_batch.req"))
        .expect("equiv_batch.req parses");
    let solver = Solver::builder(file.sigma, file.schema).chase_config(file.config).build();
    // The filter is the warming pass: it decides every request once.
    let not_equivalent: Vec<_> = file
        .requests
        .into_iter()
        .filter(|r| matches!(solver.decide(r), Ok(v) if matches!(v.answer, Answer::NotEquivalent { .. })))
        .collect();
    group.bench_function(BenchmarkId::new("not_equivalent_warm", 1), |b| {
        b.iter(|| not_equivalent.iter().filter(|r| black_box(solver.decide(r)).is_ok()).count())
    });
    group.finish();
}

criterion_group!(benches, bench_equiv_batch);
criterion_main!(benches);
