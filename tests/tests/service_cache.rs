//! Differential suite for the `eqsql_service` chase-result cache: cached
//! and fresh `sigma_equivalent` verdicts must agree on every input —
//! terminating chases, egd failures and budget exhaustion alike — and the
//! canonical key must neither split an α-equivalence class (wasted work)
//! nor merge two non-isomorphic queries (cache poisoning).

// The deprecated convenience entry points remain the differential oracle
// for the Solver suite; this legacy-surface test keeps exercising them.
#![allow(deprecated)]

use eqsql_chase::ChaseConfig;
use eqsql_core::{sigma_equivalent, sigma_equivalent_via, EquivOutcome, SoundChaser};
use eqsql_cq::{parse_query, CqQuery};
use eqsql_deps::{parse_dependencies, DependencySet};
use eqsql_gen::queries::{random_query, QueryParams};
use eqsql_gen::random_weakly_acyclic_sigma;
use eqsql_gen::rename_isomorphic;
use eqsql_gen::sigma::SigmaParams;
use eqsql_relalg::{Schema, Semantics};
use eqsql_service::{Answer, ChaseCache, Request, RequestOpts, Solver};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn schema() -> Schema {
    let mut s = Schema::all_bags(&[("a", 2), ("b", 2), ("c", 3), ("d", 1)]);
    s.mark_set_valued(eqsql_cq::Predicate::new("b"));
    s.mark_set_valued(eqsql_cq::Predicate::new("c"));
    s
}

/// 120 random weakly acyclic draws (Σ terminates by construction,
/// Theorem H.1): the cached verdict must equal the fresh verdict for every
/// pair and semantics — twice through the same cache, so both the
/// miss-then-store and the hit-then-replay paths are exercised.
#[test]
fn cached_verdicts_agree_with_fresh_on_random_draws() {
    let schema = schema();
    let cache = ChaseCache::default();
    let config = ChaseConfig::default();
    let mut rng = StdRng::seed_from_u64(0xEC5);
    let mut decided = 0usize;
    for round in 0..120 {
        let sigma = random_weakly_acyclic_sigma(
            &mut rng,
            &schema,
            &SigmaParams { tgds: 3, egds: 2, reuse_prob: 0.6 },
        );
        let params = QueryParams {
            atoms: 2 + (round % 3),
            vars: 4,
            const_prob: 0.1,
            const_domain: 3,
            max_head: 2,
        };
        let q1 = random_query(&mut rng, &schema, &params);
        // Half the rounds compare against a perturbed q1 (equivalence
        // plausible), half against an independent draw.
        let q2 = if rng.gen_bool(0.5) {
            let mut q = rename_isomorphic(&mut rng, &q1);
            if rng.gen_bool(0.5) && q.body.len() > 1 {
                q.body.pop();
            }
            if !q.is_safe() {
                q = q1.clone();
            }
            q
        } else {
            random_query(&mut rng, &schema, &params)
        };
        let sem = match round % 3 {
            0 => Semantics::Set,
            1 => Semantics::BagSet,
            _ => Semantics::Bag,
        };
        let fresh = sigma_equivalent(sem, &q1, &q2, &sigma, &schema, &config);
        for pass in 0..2 {
            let cached = sigma_equivalent_via(&cache, sem, &q1, &q2, &sigma, &schema, &config);
            assert_eq!(
                cached, fresh,
                "round {round} pass {pass} ({sem}): {q1} vs {q2} under\n{sigma}"
            );
        }
        decided += 1;
    }
    assert_eq!(decided, 120);
    let stats = cache.stats();
    assert!(stats.hits > 0, "the second passes must hit: {stats:?}");
}

/// Egd-failure outcomes (query unsatisfiable under Σ) replay correctly.
#[test]
fn cached_failure_outcomes_agree() {
    let sigma = parse_dependencies("s(X,Y) & s(X,Z) -> Y = Z.").unwrap();
    let schema = Schema::all_bags(&[("s", 2), ("p", 1)]);
    let cache = ChaseCache::default();
    let config = ChaseConfig::default();
    let dead1 = parse_query("q(X) :- s(X,3), s(X,4)").unwrap();
    let dead2 = parse_query("q(A) :- s(A,3), s(A,4)").unwrap(); // α-copy of dead1
    let dead3 = parse_query("q(X) :- s(X,1), s(X,2)").unwrap();
    let alive = parse_query("q(X) :- s(X,3)").unwrap();
    for (a, b) in
        [(&dead1, &dead2), (&dead1, &dead3), (&dead2, &dead3), (&dead1, &alive), (&alive, &dead3)]
    {
        let fresh = sigma_equivalent(Semantics::Set, a, b, &sigma, &schema, &config);
        let cached = sigma_equivalent_via(&cache, Semantics::Set, a, b, &sigma, &schema, &config);
        assert_eq!(cached, fresh, "{a} vs {b}");
    }
    // dead2 is α-equivalent to dead1: its chase must have been a hit.
    assert!(cache.stats().hits >= 1, "{:?}", cache.stats());
}

/// Budget-exhaustion outcomes are cached and replayed as the same error.
#[test]
fn cached_budget_outcomes_agree() {
    let sigma = parse_dependencies("e(X,Y) -> e(Y,Z).").unwrap();
    let schema = Schema::all_bags(&[("e", 2)]);
    let cache = ChaseCache::default();
    let config = ChaseConfig::with_max_steps(20);
    let q1 = parse_query("q(X) :- e(X,Y)").unwrap();
    let q2 = parse_query("q(X) :- e(X,Y), e(Y,Z)").unwrap();
    let fresh = sigma_equivalent(Semantics::Set, &q1, &q2, &sigma, &schema, &config);
    assert!(matches!(fresh, EquivOutcome::Unknown(_)));
    for _ in 0..2 {
        let cached =
            sigma_equivalent_via(&cache, Semantics::Set, &q1, &q2, &sigma, &schema, &config);
        assert_eq!(cached, fresh);
    }
    let stats = cache.stats();
    assert!(stats.hits >= 1 && stats.misses >= 1, "{stats:?}");
    // A *larger* budget is a different context: must not hit the cached
    // exhaustion entry.
    let big = ChaseConfig::with_max_steps(21);
    let _ = sigma_equivalent_via(&cache, Semantics::Set, &q1, &q2, &sigma, &schema, &big);
    assert!(cache.stats().misses > stats.misses);
}

/// Cache-poisoning guard, positive half: two α-equivalent queries must
/// collapse onto one entry (second one hits, no new entry).
#[test]
fn alpha_equivalent_queries_share_one_entry() {
    let sigma = parse_dependencies("a(X,Y) -> b(Y,Z). b(X,Y1) & b(X,Y2) -> Y1 = Y2.").unwrap();
    let schema = Schema::all_bags(&[("a", 2), ("b", 2)]);
    let cache = ChaseCache::default();
    let config = ChaseConfig::default();
    let q = parse_query("q(X) :- a(X,Y), b(Y,W)").unwrap();
    cache.sound_chase(Semantics::Set, &q, &sigma, &schema, &config).unwrap();
    assert_eq!(cache.stats().entries, 1);
    let mut rng = StdRng::seed_from_u64(7);
    for i in 0..10 {
        let renamed = rename_isomorphic(&mut rng, &q);
        cache.sound_chase(Semantics::Set, &renamed, &sigma, &schema, &config).unwrap();
        assert_eq!(cache.stats().entries, 1, "renaming {i} opened a second entry");
        assert_eq!(cache.stats().hits, i + 1);
    }
}

/// Cache-poisoning guard, negative half: non-isomorphic queries must land
/// in distinct entries — including pairs that are *set-equivalent* but not
/// isomorphic, and pairs differing only in duplicate-subgoal multiplicity
/// or head order (precisely the distinctions bag semantics depends on).
#[test]
fn non_isomorphic_queries_get_distinct_entries() {
    let sigma = DependencySet::new();
    let schema = Schema::all_bags(&[("a", 2), ("b", 2)]);
    let cache = ChaseCache::default();
    let config = ChaseConfig::default();
    let queries = [
        "q(X) :- a(X,Y)",
        "q(X) :- a(X,Y), a(X,Y)", // duplicate subgoal
        "q(X) :- a(X,Y), a(Y,X)", // different join
        "q(X) :- a(X,X)",         // collapsed variables
        "q(Y) :- a(X,Y)",         // head at other position
        "q(X, Y) :- a(X,Y)",      // wider head
        "q(Y, X) :- a(X,Y)",      // swapped head
        "q(X) :- a(X,Y), b(X,Z)",
        "q(X) :- a(X,Y), b(Y,Z)",
        "q(X) :- a(X,1)",
        "q(X) :- a(X,2)",
    ];
    for (i, text) in queries.iter().enumerate() {
        let q = parse_query(text).unwrap();
        cache.sound_chase(Semantics::Bag, &q, &sigma, &schema, &config).unwrap();
        assert_eq!(cache.stats().entries, i + 1, "{text} was conflated with an earlier entry");
    }
    assert_eq!(cache.stats().hits, 0);
}

/// End-to-end: a `Solver::decide_all` batch over a shared cache returns
/// the same verdicts as unbatched, uncached decisions, for every thread
/// count — and once the first batch has warmed the cache, the later
/// batches run no chase at all.
#[test]
fn batched_verdicts_match_unbatched_across_threads() {
    let schema = schema();
    let mut rng = StdRng::seed_from_u64(99);
    let sigma = random_weakly_acyclic_sigma(
        &mut rng,
        &schema,
        &SigmaParams { tgds: 4, egds: 2, reuse_prob: 0.5 },
    );
    let config = ChaseConfig::default();
    let params = QueryParams { atoms: 3, vars: 4, const_prob: 0.1, const_domain: 3, max_head: 2 };
    let mut expected: Vec<EquivOutcome> = Vec::new();
    let mut requests: Vec<Request> = Vec::new();
    for i in 0..24 {
        let q1: CqQuery = random_query(&mut rng, &schema, &params);
        let q2 = if i % 2 == 0 {
            rename_isomorphic(&mut rng, &q1)
        } else {
            random_query(&mut rng, &schema, &params)
        };
        let sem = [Semantics::Set, Semantics::Bag, Semantics::BagSet][i % 3];
        expected.push(sigma_equivalent(sem, &q1, &q2, &sigma, &schema, &config));
        requests.push(Request::Equivalent { q1, q2, opts: RequestOpts::with_sem(sem) });
    }
    let cache = Arc::new(ChaseCache::default());
    for threads in [1, 4, 8] {
        let solver = Solver::builder(sigma.clone(), schema.clone())
            .chase_config(config)
            .counterexamples(false)
            .cache(Arc::clone(&cache))
            .threads(threads)
            .build();
        let report = solver.decide_all(&requests);
        let verdicts: Vec<EquivOutcome> = report
            .verdicts
            .into_iter()
            .map(|v| match v.map(|v| v.answer) {
                Ok(Answer::Equivalent { .. }) => EquivOutcome::Equivalent,
                Ok(Answer::NotEquivalent { .. }) => EquivOutcome::NotEquivalent,
                Ok(other) => panic!("equivalence request answered with {other:?}"),
                Err(e) => EquivOutcome::Unknown(e.as_chase_error().expect("a chase-level error")),
            })
            .collect();
        assert_eq!(verdicts, expected, "threads={threads}");
        if threads > 1 {
            // The first batch chased every (Q, Σ) the later ones demand.
            assert_eq!(report.stats.cache_misses, 0, "threads={threads}: {:?}", report.stats);
        }
    }
}

/// Eviction accounting through the `Solver::stats` snapshot, with and
/// without the disk tier. FIFO eviction is a memory-tier concern, so its
/// accounting must be byte-identical in both modes: a capacity-1
/// single-shard cache evicts exactly once per new distinct entry past the
/// first and residency never exceeds capacity. Disk residency is asserted
/// independently: re-probing an evicted entry re-chases (a fifth miss)
/// without persistence, but comes back as a disk hit (misses stay at four)
/// with it.
fn solver_eviction_accounting(persist: Option<eqsql_service::PersistConfig>) {
    use eqsql_service::{CacheConfig, Request, RequestOpts, Solver};
    let persistent = persist.is_some();
    let sigma = parse_dependencies("a(X) -> b(X).").unwrap();
    let schema = Schema::all_bags(&[("a", 1), ("b", 1), ("c", 1)]);
    let solver = Solver::builder(sigma, schema)
        .cache_config(CacheConfig { shards: 1, capacity: 1, persist, ..CacheConfig::default() })
        .build();
    // Four structurally distinct queries → four entries demanded of a
    // capacity-1 shard: 3 evictions, 1 resident.
    let bodies = ["a(X)", "a(X), c(X)", "a(X), c(X), c(X)", "a(X), b(X), c(X)"];
    let requests: Vec<Request> = bodies
        .iter()
        .map(|b| {
            let q = parse_query(&format!("q(X) :- {b}")).unwrap();
            Request::Equivalent { q1: q.clone(), q2: q, opts: RequestOpts::default() }
        })
        .collect();
    let report = solver.decide_all(&requests);
    assert!(report.verdicts.iter().all(|v| v.is_ok()));
    let stats = solver.stats();
    assert_eq!(stats.requests, 4);
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.cache.entries, 1, "{stats:?}");
    assert_eq!(stats.cache.misses, 4, "{stats:?}");
    assert_eq!(
        stats.cache.evictions,
        stats.cache.misses - stats.cache.entries as u64,
        "every miss past capacity must be matched by exactly one eviction: {stats:?}"
    );
    if persistent {
        // Every miss was journaled; eviction only touched the memory tier.
        assert_eq!(stats.cache.persist.appended, 4, "{stats:?}");
    }
    // Re-probe an entry long since evicted from the memory tier.
    solver
        .decide(&Request::Equivalent {
            q1: parse_query("q(X) :- a(X)").unwrap(),
            q2: parse_query("q(X) :- a(X)").unwrap(),
            opts: RequestOpts::default(),
        })
        .unwrap();
    let after = solver.stats();
    assert_eq!(after.requests, 5);
    if persistent {
        // Disk residency outlives eviction: the re-probe is a disk hit
        // promoted back into memory, not a re-chase — and promotion does
        // not re-append.
        assert_eq!(after.cache.misses, 4, "{after:?}");
        assert_eq!(after.cache.persist.disk_hits, 1, "{after:?}");
        assert_eq!(after.cache.persist.appended, 4, "{after:?}");
    } else {
        assert_eq!(after.cache.misses, 5, "{after:?}");
    }
    // FIFO accounting is identical either way: the promoted (or
    // re-chased) entry evicts the survivor.
    assert_eq!(after.cache.evictions, 4, "{after:?}");
    assert_eq!(after.cache.entries, 1, "{after:?}");
}

#[test]
fn solver_stats_account_for_evictions() {
    solver_eviction_accounting(None);
}

#[test]
fn solver_stats_account_for_evictions_with_persistence() {
    let dir =
        std::env::temp_dir().join(format!("eqsql-service-cache-evict-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    solver_eviction_accounting(Some(eqsql_service::PersistConfig::at(&dir)));
    let _ = std::fs::remove_dir_all(&dir);
}
