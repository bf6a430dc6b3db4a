//! Crash/corruption-injection harness for the persistent chase-cache tier
//! (`eqsql_service::cache::persist`).
//!
//! The tier's value proposition is surviving hostile disk states, so the
//! suite is adversarial and deterministic: a committed byte-exact log
//! fixture is truncated at *every* byte offset and bit-flipped at every
//! byte; a writer "dies" mid-append through the deterministic
//! [`PersistFault`] hook (the persistence mirror of the engine's
//! `FaultPlan`); and every recovery is pinned to (a) keep exactly the
//! valid prefix with exact discarded accounting in `Solver::stats()`, and
//! (b) never admit an entry a fresh solver would decide differently.
//! Alongside: a 200-draw round-trip property test over every persisted
//! value shape, a 150-draw cold-vs-warm-start differential, and the disk
//! hit path's own guards — bytes altered after startup are never served,
//! and concurrent hits survive appends and compaction.
//!
//! Regenerate committed fixtures with:
//! `EQSQL_REGEN_FIXTURES=1 cargo test -p eqsql-integration-tests --test persist_recovery`

use eqsql_bench::workloads::{equiv_batch_request_file, repeated_subquery_pairs};
use eqsql_chase::{sound_chase, ChaseConfig, ChaseError};
use eqsql_core::SoundChaser;
use eqsql_cq::{are_isomorphic, find_isomorphism, parse_query, CqQuery};
use eqsql_deps::{parse_dependencies, regularize_set, DependencySet};
use eqsql_gen::queries::{random_query, QueryParams};
use eqsql_gen::sigma::SigmaParams;
use eqsql_gen::{random_weakly_acyclic_sigma, rename_isomorphic};
use eqsql_relalg::{Schema, Semantics};
use eqsql_service::cache::persist::{
    decode_record, encode_record, file_header, frame_record, PersistRecord, PersistedChase,
    FILE_HEADER_LEN, FRAME_HEADER_LEN, LOG_MAGIC,
};
use eqsql_service::{
    Answer, CacheConfig, ChaseCache, ChaseContext, Error, PersistConfig, PersistFault, Request,
    RequestOpts, Solver, Verdict,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

// ---------------------------------------------------------------- helpers

static SCRATCH_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A unique scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "eqsql-persist-{tag}-{}-{}",
            std::process::id(),
            SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn regen_fixtures() -> bool {
    std::env::var_os("EQSQL_REGEN_FIXTURES").is_some()
}

fn persist_at(dir: &Path) -> PersistConfig {
    PersistConfig::at(dir)
}

fn cache_config(persist: PersistConfig) -> CacheConfig {
    CacheConfig { persist: Some(persist), ..CacheConfig::default() }
}

fn solver_with(sigma: &DependencySet, schema: &Schema, persist: Option<PersistConfig>) -> Solver {
    let config = CacheConfig { persist, ..CacheConfig::default() };
    Solver::builder(sigma.clone(), schema.clone()).cache_config(config).build()
}

/// The randomized-draw schema shared with the solver differential suite.
fn diff_schema() -> Schema {
    let mut s = Schema::all_bags(&[("a", 2), ("b", 2), ("c", 3), ("d", 1)]);
    s.mark_set_valued(eqsql_cq::Predicate::new("b"));
    s.mark_set_valued(eqsql_cq::Predicate::new("c"));
    s
}

/// Collapses a verdict to its decision class, the unit of cold/warm
/// comparison (replayed evidence is α-equivalent, not byte-equal, so raw
/// verdicts are compared by class plus a `Verdict::verify` replay).
fn verdict_class(v: &Result<Verdict, Error>) -> String {
    match v {
        Ok(verdict) => match &verdict.answer {
            Answer::Equivalent { .. } => "equivalent".into(),
            Answer::NotEquivalent { counterexample } => {
                format!("not-equivalent/witness={}", counterexample.is_some())
            }
            other => format!("{other:?}"),
        },
        Err(e) => format!("error: {e}"),
    }
}

// ---------------------------------------------- satellite 1: round trips

/// Round-trip encode/decode over 200 randomized weakly acyclic draws,
/// covering every persisted value shape: terminal query + renaming,
/// regularized Σ, and memoized budget errors (tiny budgets force both
/// `BudgetExhausted` and `QueryTooLarge` draws). Decoded entries must be
/// exactly what the hit path confirms: same context, same fingerprint,
/// `find_isomorphism`-confirmable from an α-renamed probe.
#[test]
fn round_trip_every_persisted_shape_over_randomized_draws() {
    let schema = diff_schema();
    let mut rng = StdRng::seed_from_u64(0xD15C);
    let (mut ok_records, mut err_records) = (0usize, 0usize);
    for round in 0..200 {
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
        let q = random_query(&mut rng, &schema, &params);
        let sem = [Semantics::Set, Semantics::Bag, Semantics::BagSet][round % 3];
        // Budget rotation: default (terminal results), step-starved and
        // atom-starved (the two cacheable error shapes).
        let config = match round % 5 {
            3 => ChaseConfig::with_max_steps(1),
            4 => ChaseConfig { max_steps: 5_000, max_atoms: 1 },
            _ => ChaseConfig::default(),
        };
        let (sigma_reg, outcome) = match sound_chase(sem, &q, &sigma, &schema, &config) {
            Ok(r) => {
                ok_records += 1;
                let stored = PersistedChase {
                    query: r.query.clone(),
                    failed: r.failed,
                    steps: r.steps,
                    renaming: r.chased.renaming.clone(),
                };
                (Arc::clone(&r.sigma_regularized), Ok(stored))
            }
            Err(e) => {
                assert!(e.is_cacheable(), "round {round}: unguarded chase errored {e:?}");
                err_records += 1;
                (Arc::new(regularize_set(&sigma)), Err(e))
            }
        };
        let ctx = ChaseContext::new(sem, &sigma_reg, &schema, &config);
        let record = PersistRecord { ctx, sigma: sigma_reg, representative: q.clone(), outcome };
        let body = encode_record(&record);
        let decoded =
            decode_record(&body).unwrap_or_else(|e| panic!("round {round}: decode failed: {e}"));
        assert!(decoded.ctx.same(&record.ctx), "round {round}: context drifted");
        assert_eq!(decoded.ctx.fingerprint(), record.ctx.fingerprint(), "round {round}");
        assert_eq!(decoded.representative, record.representative, "round {round}");
        // The hit path's confirmation: an α-renamed probe of the original
        // draw must find an isomorphism onto the decoded representative.
        let probe = rename_isomorphic(&mut rng, &q);
        assert!(
            find_isomorphism(&probe, &decoded.representative).is_some(),
            "round {round}: decoded representative not isomorphism-confirmable"
        );
        match (&decoded.outcome, &record.outcome) {
            (Ok(d), Ok(o)) => {
                assert_eq!(d.query, o.query, "round {round}");
                assert_eq!((d.failed, d.steps), (o.failed, o.steps), "round {round}");
                assert_eq!(d.renaming.sorted_pairs(), o.renaming.sorted_pairs(), "round {round}");
            }
            (Err(d), Err(o)) => assert_eq!(d, o, "round {round}"),
            _ => panic!("round {round}: outcome shape changed"),
        }
        // Byte-determinism: re-encoding the decoded record is identity.
        assert_eq!(body, encode_record(&decoded), "round {round}: encoding not deterministic");
    }
    // The seed is fixed, so shape coverage is pinned, not probabilistic.
    assert!(
        ok_records >= 120 && err_records >= 20,
        "shape coverage regressed: {ok_records} terminal, {err_records} error records"
    );
}

// ------------------------------------- satellite 2: corruption injection

/// The committed fixture's three records: two Set-semantics terminal
/// results over Example-4.1-style Σ (so one equivalence probe exercises
/// both) and one memoized budget error under bag semantics.
fn fixture_records() -> (DependencySet, Schema, Vec<PersistRecord>) {
    let sigma = parse_dependencies("p(X,Y) -> s(X,Z).\ns(X,Y) & s(X,Z) -> Y = Z.").unwrap();
    let mut schema = Schema::all_bags(&[("p", 2), ("s", 2)]);
    schema.mark_set_valued(eqsql_cq::Predicate::new("s"));
    let config = ChaseConfig::default();
    let mut records = Vec::new();
    for text in ["q(X) :- p(X,Y)", "q(X) :- p(X,Y), s(X,Z)"] {
        let q = parse_query(text).unwrap();
        let r = sound_chase(Semantics::Set, &q, &sigma, &schema, &config).unwrap();
        let ctx = ChaseContext::new(Semantics::Set, &r.sigma_regularized, &schema, &config);
        records.push(PersistRecord {
            ctx,
            sigma: Arc::clone(&r.sigma_regularized),
            representative: q,
            outcome: Ok(PersistedChase {
                query: r.query.clone(),
                failed: r.failed,
                steps: r.steps,
                renaming: r.chased.renaming.clone(),
            }),
        });
    }
    // A divergent Σ under a small budget: the error-shaped record. Set
    // semantics, where the non-terminating tgd actually fires (under bag
    // semantics unkeyed tgds are inapplicable and the chase is trivial).
    let div = parse_dependencies("e(X,Y) -> e(Y,Z).").unwrap();
    let div_schema = Schema::all_bags(&[("e", 2)]);
    let small = ChaseConfig::with_max_steps(13);
    let q = parse_query("q(X) :- e(X,Y)").unwrap();
    let err = sound_chase(Semantics::Set, &q, &div, &div_schema, &small).unwrap_err();
    assert!(matches!(err, ChaseError::BudgetExhausted { .. }));
    let div_reg = Arc::new(regularize_set(&div));
    let ctx = ChaseContext::new(Semantics::Set, &div_reg, &div_schema, &small);
    records.push(PersistRecord { ctx, sigma: div_reg, representative: q, outcome: Err(err) });
    (sigma, schema, records)
}

/// The fixture log bytes plus each record's frame-start offset (the last
/// element is the file length).
fn fixture_bytes() -> (Vec<u8>, Vec<usize>) {
    let (_, _, records) = fixture_records();
    let mut bytes = file_header(&LOG_MAGIC);
    let mut boundaries = vec![bytes.len()];
    for record in &records {
        bytes.extend_from_slice(&frame_record(&encode_record(record)));
        boundaries.push(bytes.len());
    }
    (bytes, boundaries)
}

fn fixture_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/persist/log.eqc")
}

/// The committed log fixture must equal the bytes this source tree
/// produces — encoding is byte-deterministic (sorted renamings, name-based
/// interning), so any drift is a format change that needs a version bump.
#[test]
fn committed_log_fixture_is_byte_reproducible() {
    let (bytes, _) = fixture_bytes();
    let path = fixture_path();
    if regen_fixtures() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        return;
    }
    let committed =
        std::fs::read(&path).expect("fixture missing — regenerate with EQSQL_REGEN_FIXTURES=1");
    assert_eq!(
        committed, bytes,
        "fixture drifted from the encoder — if the format changed intentionally, bump \
         FORMAT_VERSION and regenerate with EQSQL_REGEN_FIXTURES=1"
    );
}

/// Expected recovery outcome for a log prefix of length `cut`:
/// `(records admitted, corruption events)`.
fn expected_at(cut: usize, boundaries: &[usize]) -> (u64, u64) {
    if cut == 0 {
        return (0, 0); // empty file: fresh log, nothing discarded
    }
    if cut < FILE_HEADER_LEN {
        return (0, 1); // unreadable header: whole file discarded
    }
    let complete = boundaries.iter().filter(|b| **b <= cut).count() as u64 - 1;
    let clean = boundaries.contains(&cut);
    (complete, if clean { 0 } else { 1 })
}

/// Truncate the fixture at every byte offset: recovery admits exactly the
/// complete valid prefix, counts exactly one corruption event for a torn
/// tail, truncates the log so a *second* open is clean, and never panics.
/// At record boundaries (and sampled interior offsets) a solver over the
/// recovered directory must decide identically to a fresh solver, with
/// disk hits exactly matching the admitted records.
#[test]
fn truncation_at_every_offset_keeps_exactly_the_valid_prefix() {
    let (bytes, boundaries) = fixture_bytes();
    let (sigma, schema, records) = fixture_records();
    let scratch = Scratch::new("truncate");
    let dir = scratch.path();
    let log = dir.join("log.eqc");
    for cut in 0..=bytes.len() {
        let (want_records, want_discarded) = expected_at(cut, &boundaries);
        std::fs::write(&log, &bytes[..cut]).unwrap();
        let cache = ChaseCache::open(cache_config(persist_at(dir))).unwrap();
        let p = cache.stats().persist;
        assert_eq!(
            (p.loaded, p.recovered, p.discarded),
            (0, want_records, want_discarded),
            "cut at {cut}"
        );
        drop(cache);
        // Recovery truncated the torn tail: reopening is clean.
        let p = ChaseCache::open(cache_config(persist_at(dir))).unwrap().stats().persist;
        assert_eq!((p.recovered, p.discarded), (want_records, 0), "second open, cut at {cut}");

        if boundaries.contains(&cut) || cut % 37 == 0 {
            // Verdict differential: the recovered cache must answer like a
            // fresh solver, with the two Set-records served from disk iff
            // admitted (record 3 is under bag semantics/another Σ and is
            // never probed here).
            std::fs::write(&log, &bytes[..cut]).unwrap();
            let recovered = solver_with(&sigma, &schema, Some(persist_at(dir)));
            let fresh = solver_with(&sigma, &schema, None);
            let req = Request::Equivalent {
                q1: records[0].representative.clone(),
                q2: records[1].representative.clone(),
                opts: RequestOpts::default(),
            };
            let got = recovered.decide(&req);
            assert_eq!(verdict_class(&got), verdict_class(&fresh.decide(&req)), "cut at {cut}");
            if let Ok(v) = &got {
                v.verify(&req, recovered.sigma(), recovered.schema()).unwrap();
            }
            let admitted = want_records.min(2);
            let s = recovered.stats().cache;
            assert_eq!(
                (s.hits, s.misses, s.persist.disk_hits),
                (admitted, 2 - admitted, admitted),
                "cut at {cut}: hit/miss attribution must equal the admitted prefix"
            );
        }
    }
}

/// Flip one bit at every byte of the fixture — length fields, checksums,
/// bodies, the file header: recovery admits exactly the records *before*
/// the corrupted one, counts one corruption event, never panics, and a
/// subsequent solver still decides identically to a fresh one.
#[test]
fn bitflip_at_every_byte_is_survived_with_exact_accounting() {
    let (bytes, boundaries) = fixture_bytes();
    let (sigma, schema, records) = fixture_records();
    let scratch = Scratch::new("bitflip");
    let dir = scratch.path();
    let log = dir.join("log.eqc");
    for pos in 0..bytes.len() {
        for mask in [0x01u8, 0x80] {
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= mask;
            // First record whose frame contains the flipped byte; header
            // flips discard the whole file.
            let want_records = if pos < FILE_HEADER_LEN {
                0
            } else {
                boundaries.iter().filter(|b| **b <= pos).count() as u64 - 1
            };
            std::fs::write(&log, &corrupted).unwrap();
            let cache = ChaseCache::open(cache_config(persist_at(dir))).unwrap();
            let p = cache.stats().persist;
            assert_eq!((p.recovered, p.discarded), (want_records, 1), "flip {mask:#04x} at {pos}");
        }
    }
    // Spot-check the verdict differential on a body flip in each record.
    for (i, window) in boundaries.windows(2).enumerate() {
        let mut corrupted = bytes.clone();
        corrupted[window[0] + FRAME_HEADER_LEN + 3] ^= 0xFF;
        std::fs::write(&log, &corrupted).unwrap();
        let recovered = solver_with(&sigma, &schema, Some(persist_at(dir)));
        let fresh = solver_with(&sigma, &schema, None);
        let req = Request::Equivalent {
            q1: records[0].representative.clone(),
            q2: records[1].representative.clone(),
            opts: RequestOpts::default(),
        };
        assert_eq!(
            verdict_class(&recovered.decide(&req)),
            verdict_class(&fresh.decide(&req)),
            "body flip in record {i}"
        );
    }
}

// --------------------------------------- writer death & read-only modes

/// Deterministic writer death: the second append writes only 5 bytes of
/// its frame and the writer goes silent — exactly a process killed inside
/// `write(2)`. The surviving run keeps serving from memory; the next
/// process recovers the one durable record, truncates the torn frame, and
/// decides everything identically to a fresh solver.
#[test]
fn writer_death_mid_append_recovers_the_durable_prefix() {
    let sigma = parse_dependencies("a(X) -> b(X).").unwrap();
    let schema = Schema::all_bags(&[("a", 1), ("b", 1), ("c", 1)]);
    let scratch = Scratch::new("writer-death");
    let dir = scratch.path();
    let reqs: Vec<Request> = ["a(X)", "a(X), c(X)", "a(X), b(X), c(X)"]
        .iter()
        .map(|b| {
            let q = parse_query(&format!("q(X) :- {b}")).unwrap();
            Request::Equivalent { q1: q.clone(), q2: q, opts: RequestOpts::default() }
        })
        .collect();

    let mut persist = persist_at(dir);
    persist.fault = Some(PersistFault { at_append: 2, keep_bytes: 5 });
    let dying = solver_with(&sigma, &schema, Some(persist));
    let dying_verdicts: Vec<String> =
        reqs.iter().map(|r| verdict_class(&dying.decide(r))).collect();
    let p = dying.stats().cache.persist;
    // Append 1 landed; append 2 tore the frame and killed the writer;
    // append 3 was dropped. No I/O error: the disk didn't fail, the
    // writer died.
    assert_eq!((p.appended, p.io_errors), (1, 0), "{p:?}");
    drop(dying);

    let recovered = solver_with(&sigma, &schema, Some(persist_at(dir)));
    let p = recovered.stats().cache.persist;
    assert_eq!((p.loaded, p.recovered, p.discarded), (0, 1, 1), "{p:?}");
    let fresh = solver_with(&sigma, &schema, None);
    for (i, req) in reqs.iter().enumerate() {
        let got = verdict_class(&recovered.decide(req));
        assert_eq!(got, verdict_class(&fresh.decide(req)), "request {i}");
        assert_eq!(got, dying_verdicts[i], "request {i} vs pre-death run");
    }
    let s = recovered.stats().cache;
    assert_eq!(s.persist.disk_hits, 1, "only the durable record serves from disk: {s:?}");
    // The two lost entries were re-chased and re-persisted.
    assert_eq!(s.persist.appended, 2, "{s:?}");
}

/// Read-only mode serves disk hits but never writes: no appends, no
/// truncation, the log bytes stay untouched even while new queries are
/// decided (memory-only) on top.
#[test]
fn read_only_mode_serves_hits_without_writing() {
    let sigma = parse_dependencies("a(X) -> b(X).").unwrap();
    let schema = Schema::all_bags(&[("a", 1), ("b", 1), ("c", 1)]);
    let scratch = Scratch::new("read-only");
    let dir = scratch.path();
    let req = {
        let q = parse_query("q(X) :- a(X)").unwrap();
        Request::Equivalent { q1: q.clone(), q2: q, opts: RequestOpts::default() }
    };
    let writer = solver_with(&sigma, &schema, Some(persist_at(dir)));
    writer.decide(&req).unwrap();
    assert_eq!(writer.stats().cache.persist.appended, 1);
    drop(writer);
    let log_before = std::fs::read(dir.join("log.eqc")).unwrap();

    let mut persist = persist_at(dir);
    persist.read_only = true;
    let replica = solver_with(&sigma, &schema, Some(persist));
    assert_eq!(replica.stats().cache.persist.recovered, 1);
    replica.decide(&req).unwrap();
    let fresh_q = parse_query("q(X) :- a(X), c(X)").unwrap();
    replica
        .decide(&Request::Equivalent {
            q1: fresh_q.clone(),
            q2: fresh_q,
            opts: RequestOpts::default(),
        })
        .unwrap();
    let s = replica.stats().cache;
    assert!(s.persist.disk_hits >= 1, "{s:?}");
    assert_eq!(s.persist.appended, 0, "read-only replica must not write: {s:?}");
    assert_eq!(std::fs::read(dir.join("log.eqc")).unwrap(), log_before, "log bytes changed");
}

/// Snapshot compaction: with a cadence of 2, five distinct entries force
/// at least two compactions; a restart loads the snapshot, replays the log
/// remainder, admits all five entries exactly once, and serves them warm.
#[test]
fn snapshot_compaction_round_trips_through_restart() {
    let sigma = parse_dependencies("a(X) -> b(X).").unwrap();
    let schema = Schema::all_bags(&[("a", 1), ("b", 1), ("c", 1), ("d", 1)]);
    let scratch = Scratch::new("snapshot");
    let dir = scratch.path();
    let bodies = ["a(X)", "a(X), c(X)", "a(X), d(X)", "a(X), c(X), d(X)", "a(X), b(X), c(X), d(X)"];
    let reqs: Vec<Request> = bodies
        .iter()
        .map(|b| {
            let q = parse_query(&format!("q(X) :- {b}")).unwrap();
            Request::Equivalent { q1: q.clone(), q2: q, opts: RequestOpts::default() }
        })
        .collect();

    let mut persist = persist_at(dir);
    persist.snapshot_every = 2;
    let cold = solver_with(&sigma, &schema, Some(persist));
    let cold_verdicts: Vec<String> = reqs.iter().map(|r| verdict_class(&cold.decide(r))).collect();
    let p = cold.stats().cache.persist;
    assert_eq!(p.appended, 5, "{p:?}");
    assert!(p.snapshots >= 2, "cadence 2 over 5 appends must compact twice: {p:?}");
    drop(cold);
    assert!(dir.join("snapshot.eqc").exists());

    let warm = solver_with(&sigma, &schema, Some(persist_at(dir)));
    let p = warm.stats().cache.persist;
    assert!(p.loaded >= 4, "most records live in the snapshot: {p:?}");
    assert_eq!(p.loaded + p.recovered, 5, "every entry admitted exactly once: {p:?}");
    assert_eq!(p.discarded, 0, "{p:?}");
    for (req, want) in reqs.iter().zip(&cold_verdicts) {
        assert_eq!(&verdict_class(&warm.decide(req)), want);
    }
    let s = warm.stats().cache;
    assert_eq!(s.misses, 0, "fully warm restart must not re-chase: {s:?}");
    assert_eq!(s.persist.disk_hits, 5, "{s:?}");
}

// ------------------------------------------------------ the disk hit path

/// A disk hit re-verifies the frame it serves. Here one bit of a stored
/// terminal's constant is flipped in `log.eqc` after startup validated
/// it: the probe must miss (re-chasing to the genuine terminal) and count
/// one corruption event, never replay the altered terminal.
#[test]
fn disk_hit_rejects_bytes_altered_after_open() {
    let sigma = parse_dependencies("p(X,Y) -> s(Y,Z).").unwrap();
    let schema = Schema::all_bags(&[("p", 2), ("s", 2)]);
    let config = ChaseConfig::default();
    let scratch = Scratch::new("altered");
    let dir = scratch.path();
    // One memory entry: the second probe evicts the first to disk only.
    let cache =
        ChaseCache::open(CacheConfig { shards: 1, capacity: 1, persist: Some(persist_at(dir)) })
            .unwrap();
    let probe = parse_query("q(X) :- p(X, 77777)").unwrap();
    let other = parse_query("q(X) :- s(X, X)").unwrap();
    cache.sound_chase(Semantics::Set, &probe, &sigma, &schema, &config).unwrap();
    cache.sound_chase(Semantics::Set, &other, &sigma, &schema, &config).unwrap();

    // The last 77777 in the log is in the probe's terminal, s(77777, Z).
    let log = dir.join("log.eqc");
    let mut bytes = std::fs::read(&log).unwrap();
    let at = bytes.windows(8).rposition(|w| w == 77777u64.to_le_bytes()).unwrap();
    bytes[at] ^= 1;
    std::fs::write(&log, &bytes).unwrap();

    let got = cache.sound_chase(Semantics::Set, &probe, &sigma, &schema, &config).unwrap();
    let want = sound_chase(Semantics::Set, &probe, &sigma, &schema, &config).unwrap();
    assert!(
        are_isomorphic(&got.query, &want.query),
        "served {} for {}, want {}",
        got.query,
        probe,
        want.query
    );
    let s = cache.stats();
    assert_eq!(
        (s.hits, s.misses, s.persist.disk_hits, s.persist.discarded, s.persist.io_errors),
        (0, 3, 0, 1, 0),
        "{s:?}"
    );
}

/// Compaction re-verifies every frame it copies: one altered after startup
/// is dropped (one `discarded` event), never re-checksummed into the
/// snapshot, so the next process cannot load it as a valid record.
#[test]
fn compaction_drops_frames_altered_after_open() {
    let sigma = parse_dependencies("p(X,Y) -> s(Y,Z).").unwrap();
    let schema = Schema::all_bags(&[("p", 2), ("s", 2)]);
    let config = ChaseConfig::default();
    let scratch = Scratch::new("altered-compaction");
    let dir = scratch.path();
    let probe = parse_query("q(X) :- p(X, 77777)").unwrap();
    let mut persist = persist_at(dir);
    persist.snapshot_every = 3;
    let cache = ChaseCache::open(cache_config(persist)).unwrap();
    cache.sound_chase(Semantics::Set, &probe, &sigma, &schema, &config).unwrap();
    let log = dir.join("log.eqc");
    let mut bytes = std::fs::read(&log).unwrap();
    let at = bytes.windows(8).rposition(|w| w == 77777u64.to_le_bytes()).unwrap();
    bytes[at] ^= 1;
    std::fs::write(&log, &bytes).unwrap();
    // Two more appends reach the cadence: the compaction meets the altered frame.
    for text in ["q(X) :- s(X, X)", "q(X) :- p(X, X)"] {
        let q = parse_query(text).unwrap();
        cache.sound_chase(Semantics::Set, &q, &sigma, &schema, &config).unwrap();
    }
    let p = cache.stats().persist;
    assert_eq!((p.appended, p.snapshots, p.discarded), (3, 1, 1), "{p:?}");
    drop(cache);

    let restarted = ChaseCache::open(cache_config(persist_at(dir))).unwrap();
    let p = restarted.stats().persist;
    assert_eq!((p.loaded, p.recovered, p.discarded), (2, 0, 0), "{p:?}");
    let got = restarted.sound_chase(Semantics::Set, &probe, &sigma, &schema, &config).unwrap();
    let want = sound_chase(Semantics::Set, &probe, &sigma, &schema, &config).unwrap();
    assert!(are_isomorphic(&got.query, &want.query), "served {}, want {}", got.query, want.query);
    assert_eq!(restarted.stats().persist.disk_hits, 0);
}

/// Two threads re-probe a filled cache dir behind a one-entry memory tier,
/// so nearly every probe is a disk hit confirmed outside the tier lock,
/// while a third thread's misses append and compact every two records —
/// swapping the index and truncating the log under the readers. Every
/// replayed result must be isomorphic to a direct `sound_chase`, readers
/// must never miss, and no frame may be rejected or fail to read.
#[test]
fn concurrent_disk_hits_survive_appends_and_compaction() {
    let sigma = parse_dependencies("p(X,Y) -> s(Y,Z).\ns(X,Y) -> t(X).").unwrap();
    let schema = Schema::all_bags(&[("p", 2), ("s", 2), ("t", 1)]);
    let config = ChaseConfig::default();
    let scratch = Scratch::new("concurrent");
    let dir = scratch.path();
    let filled: Vec<CqQuery> =
        (0..12).map(|k| parse_query(&format!("q(X) :- p(X, {k}), t(X)")).unwrap()).collect();
    let fresh: Vec<CqQuery> =
        (0..40).map(|k| parse_query(&format!("q(X) :- s(X, {k})")).unwrap()).collect();
    {
        let cold = ChaseCache::open(cache_config(persist_at(dir))).unwrap();
        for q in &filled {
            cold.sound_chase(Semantics::Set, q, &sigma, &schema, &config).unwrap();
        }
    }
    let want: Vec<CqQuery> = filled
        .iter()
        .map(|q| sound_chase(Semantics::Set, q, &sigma, &schema, &config).unwrap().query)
        .collect();

    let mut persist = persist_at(dir);
    persist.snapshot_every = 2;
    let cache =
        ChaseCache::open(CacheConfig { shards: 1, capacity: 1, persist: Some(persist) }).unwrap();
    let start = Barrier::new(3);
    std::thread::scope(|scope| {
        for seed in 0..2u64 {
            let (cache, filled, want, start) = (&cache, &filled, &want, &start);
            let (sigma, schema, config) = (&sigma, &schema, &config);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                start.wait();
                for _ in 0..25 {
                    for (q, want) in filled.iter().zip(want) {
                        let probe = rename_isomorphic(&mut rng, q);
                        let got = cache
                            .sound_chase(Semantics::Set, &probe, sigma, schema, config)
                            .unwrap();
                        assert!(
                            are_isomorphic(&got.query, want),
                            "replayed {} for {probe}, want {want}",
                            got.query
                        );
                    }
                }
            });
        }
        scope.spawn(|| {
            start.wait();
            for q in &fresh {
                cache.sound_chase(Semantics::Set, q, &sigma, &schema, &config).unwrap();
            }
        });
    });
    let s = cache.stats();
    assert!(s.persist.disk_hits > 0, "{s:?}");
    assert!(s.persist.snapshots >= 10, "cadence 2 over 40 appends: {s:?}");
    assert_eq!(s.misses as usize, fresh.len(), "only the writer's probes may miss: {s:?}");
    assert_eq!((s.persist.discarded, s.persist.io_errors), (0, 0), "{s:?}");
}

// ------------------------------------------------- single-writer locking

/// Two writable opens of one cache dir must not coexist: the second
/// fails fast (`AddrInUse`, naming the live holder's pid), and the
/// degrading constructor ([`ChaseCache::new`] via `Solver::builder`)
/// falls back to memory-only with the failure visible in `io_errors`.
#[test]
fn second_writable_open_of_a_locked_dir_fails_fast() {
    let scratch = Scratch::new("lock-conflict");
    let dir = scratch.path();
    let holder = ChaseCache::open(cache_config(persist_at(dir))).unwrap();
    assert!(dir.join("writer.lock").exists(), "writable open must take the lock");

    let err = match ChaseCache::open(cache_config(persist_at(dir))) {
        Err(e) => e,
        Ok(_) => panic!("second writable open must fail while the lock is held"),
    };
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse, "{err}");
    assert!(
        err.to_string().contains(&std::process::id().to_string()),
        "error must name the holding pid: {err}"
    );

    // The non-surfacing constructor degrades instead of failing.
    let sigma = parse_dependencies("a(X) -> b(X).").unwrap();
    let schema = Schema::all_bags(&[("a", 1), ("b", 1)]);
    let degraded = solver_with(&sigma, &schema, Some(persist_at(dir)));
    let p = degraded.stats().cache.persist;
    assert_eq!(p.io_errors, 1, "degradation must be observable: {p:?}");
    drop(holder);
}

/// Read-only replicas bypass the lock entirely: they open alongside a
/// live writer, and leave no lock of their own behind.
#[test]
fn read_only_open_bypasses_the_writer_lock() {
    let scratch = Scratch::new("lock-read-only");
    let dir = scratch.path();
    let sigma = parse_dependencies("a(X) -> b(X).").unwrap();
    let schema = Schema::all_bags(&[("a", 1), ("b", 1)]);
    let writer = solver_with(&sigma, &schema, Some(persist_at(dir)));
    let q = parse_query("q(X) :- a(X)").unwrap();
    let req = Request::Equivalent { q1: q.clone(), q2: q, opts: RequestOpts::default() };
    writer.decide(&req).unwrap();

    let mut ro = persist_at(dir);
    ro.read_only = true;
    let replica = ChaseCache::open(cache_config(ro)).unwrap();
    assert_eq!(replica.stats().persist.io_errors, 0);
    drop(replica);
    assert!(dir.join("writer.lock").exists(), "replica must not release the writer's lock");
    drop(writer);
    assert!(!dir.join("writer.lock").exists(), "writer drop must release the lock");
}

/// A lock left by a dead process (its pid no longer runs) or holding
/// unreadable garbage is stale: the next writable open reclaims it
/// silently. Dropping that open releases the reclaimed lock.
#[test]
fn stale_and_garbage_locks_are_reclaimed() {
    let scratch = Scratch::new("lock-stale");
    let dir = scratch.path();
    // A pid far above the kernel's pid_max: certainly not running.
    std::fs::write(dir.join("writer.lock"), "999999999").unwrap();
    let cache = ChaseCache::open(cache_config(persist_at(dir))).unwrap();
    assert_eq!(cache.stats().persist.io_errors, 0);
    drop(cache);
    assert!(!dir.join("writer.lock").exists(), "reclaimed lock must release on drop");

    std::fs::write(dir.join("writer.lock"), b"\xFFnot a pid\xFF").unwrap();
    let cache = ChaseCache::open(cache_config(persist_at(dir))).unwrap();
    assert_eq!(cache.stats().persist.io_errors, 0);
    drop(cache);
    assert!(!dir.join("writer.lock").exists());

    // Our own pid is *live* by definition — even hand-planted, it must
    // conflict (another tier in this process could be the holder).
    std::fs::write(dir.join("writer.lock"), std::process::id().to_string()).unwrap();
    assert!(
        ChaseCache::open(cache_config(persist_at(dir))).is_err(),
        "a lock naming a live pid must conflict"
    );
    std::fs::remove_file(dir.join("writer.lock")).unwrap();
}

// ------------------------------------ satellite 3: warm-start differential

/// 150 randomized weakly acyclic draws (the parameters of the solver
/// differential suite), three semantics each: a warm-started solver
/// (snapshot + log replay, compaction forced mid-run by a cadence of 3)
/// must produce the same verdict classes as its cold predecessor, every
/// certificate must replay, and the hit/miss attribution must be exact —
/// zero warm misses, one warm hit per cold probe, zero re-appends.
#[test]
fn warm_start_matches_cold_solver_on_randomized_draws() {
    let schema = diff_schema();
    let mut rng = StdRng::seed_from_u64(0x501E);
    let scratch = Scratch::new("warm-differential");
    for round in 0..150 {
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
        let reqs: Vec<Request> = [Semantics::Set, Semantics::Bag, Semantics::BagSet]
            .into_iter()
            .map(|sem| Request::Equivalent {
                q1: q1.clone(),
                q2: q2.clone(),
                opts: RequestOpts::with_sem(sem),
            })
            .collect();

        let dir = scratch.path().join(format!("r{round}"));
        let mut persist = persist_at(&dir);
        persist.snapshot_every = 3;
        let cold = solver_with(&sigma, &schema, Some(persist));
        let cold_verdicts: Vec<String> =
            reqs.iter().map(|r| verdict_class(&cold.decide(r))).collect();
        let cold_stats = cold.stats().cache;
        drop(cold);

        let warm = solver_with(&sigma, &schema, Some(persist_at(&dir)));
        let wp = warm.stats().cache.persist;
        assert_eq!(
            wp.loaded + wp.recovered,
            cold_stats.persist.appended,
            "round {round}: every cold append must be admitted exactly once: {wp:?}"
        );
        assert_eq!(wp.discarded, 0, "round {round}: {wp:?}");
        for (req, want) in reqs.iter().zip(&cold_verdicts) {
            let got = warm.decide(req);
            assert_eq!(&verdict_class(&got), want, "round {round}: {q1} vs {q2}");
            if let Ok(v) = &got {
                v.verify(req, warm.sigma(), warm.schema())
                    .unwrap_or_else(|e| panic!("round {round}: warm evidence failed: {e}"));
            }
        }
        let ws = warm.stats().cache;
        assert_eq!(ws.misses, 0, "round {round}: warm run re-chased: {ws:?}");
        assert_eq!(
            ws.hits,
            cold_stats.hits + cold_stats.misses,
            "round {round}: warm attribution must mirror the cold probe stream: {ws:?}"
        );
        assert_eq!(ws.persist.appended, 0, "round {round}: warm run re-appended: {ws:?}");
    }
}

// -------------------------------------------- equiv_batch request fixture

/// The committed `equiv_batch.req` served by `scripts/bench_snapshot.sh`
/// and `scripts/verify.sh` must equal the benched workload, line for line,
/// and parse into one request per benched pair. The end-to-end
/// benchmark's copy under `e2e_bench/data/` must stay byte-identical to
/// it; that copy is only read here, never regenerated.
#[test]
fn equiv_batch_request_fixture_matches_the_benched_workload() {
    let text = equiv_batch_request_file();
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let path = root.join("crates/service/fixtures/equiv_batch.req");
    if regen_fixtures() {
        std::fs::write(&path, &text).unwrap();
    }
    let committed = std::fs::read_to_string(&path)
        .expect("fixture missing — regenerate with EQSQL_REGEN_FIXTURES=1");
    assert_eq!(committed, text, "fixture drifted — regenerate with EQSQL_REGEN_FIXTURES=1");
    let benched = std::fs::read(root.join("e2e_bench/data/equiv_batch.req"))
        .expect("the end-to-end benchmark's copy of equiv_batch.req");
    assert!(benched == text.as_bytes(), "e2e_bench/data/equiv_batch.req differs from the fixture");
    let parsed = eqsql_service::parse_request_file(&text).expect("fixture parses");
    assert_eq!(parsed.requests.len(), repeated_subquery_pairs().len());
}
