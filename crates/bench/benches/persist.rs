//! Persistence tier on the equiv_batch workload: what does durability
//! cost, and what does a restart recover?
//!
//! * `cold_disk` — fresh cache + fresh directory per iteration: the cold
//!   batch paying log appends on every distinct chase (compare against
//!   `equiv_batch/cnb_repeated/cold/1` for the write overhead).
//! * `restart_warm` — a directory populated once, untimed; each iteration
//!   opens a *fresh* cache over it (startup recovery included) and serves
//!   the batch from disk hits promoted into memory. This is the restart
//!   story the tier exists for.
//! * `warm_memory` — the same persistent cache instance re-serving the
//!   batch from its memory tier: the in-process warm baseline.
//!
//! `scripts/bench_snapshot.sh` records the medians in `BENCH_chase.json`
//! under `persist`.

use criterion::{criterion_group, criterion_main, Criterion};
use eqsql_bench::workloads::{repeated_subquery_pairs, workload_schema, workload_sigma};
use eqsql_chase::ChaseConfig;
use eqsql_service::{CacheConfig, ChaseCache, PersistConfig, Solver};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn scratch_root() -> PathBuf {
    std::env::temp_dir().join(format!("eqsql-persist-bench-{}", std::process::id()))
}

fn fresh_dir(root: &PathBuf) -> PathBuf {
    root.join(format!("d{}", DIR_SEQ.fetch_add(1, Ordering::Relaxed)))
}

fn persistent_cache(dir: PathBuf) -> Arc<ChaseCache> {
    let cache = ChaseCache::open(CacheConfig {
        persist: Some(PersistConfig::at(dir)),
        ..CacheConfig::default()
    })
    .expect("bench scratch dir must open");
    assert_eq!(cache.stats().persist.io_errors, 0);
    Arc::new(cache)
}

fn bench_persist(c: &mut Criterion) {
    let sigma = workload_sigma();
    let schema = workload_schema();
    let config = ChaseConfig::default();
    let pairs = repeated_subquery_pairs();
    let root = scratch_root();
    // Boolean verdicts only, as in the `equiv_batch` bench.
    let solver_over = |cache: Arc<ChaseCache>| {
        Solver::builder(sigma.clone(), schema.clone())
            .chase_config(config)
            .counterexamples(false)
            .cache(cache)
            .build()
    };

    let mut group = c.benchmark_group("persist/cnb_repeated");
    group.sample_size(10);

    group.bench_function("cold_disk", |b| {
        b.iter(|| black_box(solver_over(persistent_cache(fresh_dir(&root))).decide_all(&pairs)))
    });

    // One directory populated untimed; every restart_warm iteration pays
    // startup recovery over it plus disk-hit promotion for each α-class.
    let warm_dir = fresh_dir(&root);
    solver_over(persistent_cache(warm_dir.clone())).decide_all(&pairs);
    group.bench_function("restart_warm", |b| {
        b.iter(|| black_box(solver_over(persistent_cache(warm_dir.clone())).decide_all(&pairs)))
    });

    let warm = solver_over(persistent_cache(fresh_dir(&root)));
    warm.decide_all(&pairs); // populate memory tier and log, untimed
    group.bench_function("warm_memory", |b| b.iter(|| black_box(warm.decide_all(&pairs))));

    group.finish();
    let _ = std::fs::remove_dir_all(&root);
}

criterion_group!(benches, bench_persist);
criterion_main!(benches);
