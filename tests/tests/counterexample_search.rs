//! The separating-database search behind every `NotEquivalent` verdict.
//!
//! * **Witness identity.** `tests/fixtures/cex_witness_shapes.txt` records,
//!   for every pair of `equiv_batch.req`, 200 seeded Appendix-H (m = 4)
//!   pairs and two bag-semantics pairs over bag-valued relations, the
//!   verdict and the shape of the attached witness: per relation, the
//!   number of distinct tuples and the multiplicity sum. Shapes do not
//!   depend on how constants and nulls are named, so they pin *which*
//!   candidate the search returned. The bag pairs are separated only by
//!   an m-copy amplification (Lemma D.1), whose witness repeats a tuple.
//! * **Laziness.** When the canonical database of the set-chased `q1`
//!   separates, the search chases nothing else and runs no instance chase.
//!
//! Regenerate the fixture with:
//! `EQSQL_REGEN_FIXTURES=1 cargo test -p eqsql-integration-tests --test counterexample_search`

use eqsql_chase::{sound_chase, ChaseConfig, ChaseError, SoundChased};
use eqsql_core::counterexample::separating_database_via;
use eqsql_core::{DirectChaser, SoundChaser};
use eqsql_cq::{parse_query, CqQuery};
use eqsql_deps::{parse_dependencies, DependencySet};
use eqsql_gen::queries::{random_query, QueryParams};
use eqsql_gen::{appendix_h_instance, rename_isomorphic};
use eqsql_relalg::{canonical_database, Database, Schema, Semantics};
use eqsql_service::{parse_request_file, Answer, Cancel, Request, RequestOpts, RunGuard, Solver};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

const APPENDIX_H_PAIRS: usize = 200;
const APPENDIX_H_SEED: u64 = 0xCE5;

fn regen_fixtures() -> bool {
    std::env::var_os("EQSQL_REGEN_FIXTURES").is_some()
}

fn equiv_batch_text() -> String {
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates/service/fixtures/equiv_batch.req");
    std::fs::read_to_string(path).expect("equiv_batch.req fixture")
}

/// `rel=tuples/multiplicity-sum` per nonempty relation, in name order.
fn shape(db: &Database) -> String {
    let mut rels: Vec<(String, usize, u64)> = db
        .iter()
        .filter(|(_, r)| !r.is_empty())
        .map(|(p, r)| (p.to_string(), r.core_len(), r.len()))
        .collect();
    rels.sort();
    let parts: Vec<String> = rels.iter().map(|(p, n, m)| format!("{p}={n}/{m}")).collect();
    parts.join(" ")
}

fn sem_name(sem: Semantics) -> &'static str {
    match sem {
        Semantics::Set => "set",
        Semantics::Bag => "bag",
        Semantics::BagSet => "bagset",
    }
}

/// Is `db` shaped like the canonical database of `q`'s set chase — a
/// first-family candidate?
fn is_chased_canonical_shape(
    db: &Database,
    q: &CqQuery,
    sigma: &DependencySet,
    schema: &Schema,
) -> bool {
    match sound_chase(Semantics::Set, q, sigma, schema, &ChaseConfig::default()) {
        Ok(c) if !c.failed => shape(&canonical_database(&c.query, 0).db) == shape(db),
        _ => false,
    }
}

/// Decides every equivalence request of one stream on a fresh solver and
/// appends one fixture line per request. Returns how many witnesses have
/// the shape of a chased query's canonical database, and how many do not.
fn record(
    out: &mut String,
    tag: &str,
    sigma: &DependencySet,
    schema: &Schema,
    requests: &[(Semantics, CqQuery, CqQuery)],
) -> (usize, usize) {
    let solver = Solver::builder(sigma.clone(), schema.clone()).build();
    let (mut chased_shape, mut other_shape) = (0, 0);
    for (i, (sem, q1, q2)) in requests.iter().enumerate() {
        let request = Request::Equivalent {
            q1: q1.clone(),
            q2: q2.clone(),
            opts: RequestOpts::with_sem(*sem),
        };
        let verdict = solver.decide(&request);
        let what = match verdict.as_ref().map(|v| &v.answer) {
            Ok(Answer::Equivalent { .. }) => "equivalent".to_string(),
            Ok(Answer::NotEquivalent { counterexample: None }) => "no-witness".to_string(),
            Ok(Answer::NotEquivalent { counterexample: Some(cex) }) => {
                if [q1, q2].iter().any(|q| is_chased_canonical_shape(&cex.db, q, sigma, schema)) {
                    chased_shape += 1;
                } else {
                    other_shape += 1;
                }
                format!("witness {}", shape(&cex.db))
            }
            other => panic!("{tag} {i}: equivalence request answered with {other:?}"),
        };
        writeln!(out, "{tag} {i} {}: {what}", sem_name(*sem)).unwrap();
    }
    (chased_shape, other_shape)
}

fn equiv_batch_requests() -> (DependencySet, Schema, Vec<(Semantics, CqQuery, CqQuery)>) {
    let file = parse_request_file(&equiv_batch_text()).expect("equiv_batch.req parses");
    let requests = file
        .requests
        .iter()
        .map(|r| match r {
            Request::Equivalent { q1, q2, opts } => {
                (opts.sem.expect("every pair names its semantics"), q1.clone(), q2.clone())
            }
            other => panic!("equiv_batch.req holds only pairs, found {other:?}"),
        })
        .collect();
    (file.sigma, file.schema, requests)
}

/// Seeded 3-atom query pairs over the Appendix-H family at m = 4: every
/// fourth pair is an α-renamed twin, the rest are independent draws;
/// semantics cycle set, bag, bag-set.
fn appendix_h_requests() -> (DependencySet, Schema, Vec<(Semantics, CqQuery, CqQuery)>) {
    let h = appendix_h_instance(4);
    let params = QueryParams { atoms: 3, vars: 4, const_prob: 0.2, const_domain: 6, max_head: 2 };
    let mut rng = StdRng::seed_from_u64(APPENDIX_H_SEED);
    let requests = (0..APPENDIX_H_PAIRS)
        .map(|k| {
            let sem = [Semantics::Set, Semantics::Bag, Semantics::BagSet][k % 3];
            let q1 = random_query(&mut rng, &h.schema, &params);
            let q2 = if k % 4 == 0 {
                rename_isomorphic(&mut rng, &q1)
            } else {
                random_query(&mut rng, &h.schema, &params)
            };
            (sem, q1, q2)
        })
        .collect();
    (h.sigma, h.schema, requests)
}

/// Bag-semantics pairs over bag-valued relations that differ only in a
/// duplicated subgoal. Every candidate database with one copy of each
/// tuple gives both sides the same answers, so only an m-copy
/// amplification (Lemma D.1) separates them.
fn bag_amplification_requests() -> (DependencySet, Schema, Vec<(Semantics, CqQuery, CqQuery)>) {
    let sigma = parse_dependencies("a(X) -> b(X,W).").unwrap();
    let schema = Schema::all_bags(&[("a", 1), ("b", 2)]);
    let requests = [
        ("q(X) :- b(X,Y), b(X,Y)", "q(X) :- b(X,Y)"),
        ("q(X) :- a(X), b(X,Y), b(X,Y)", "q(X) :- a(X), b(X,Y)"),
    ]
    .into_iter()
    .map(|(q1, q2)| (Semantics::Bag, parse_query(q1).unwrap(), parse_query(q2).unwrap()))
    .collect();
    (sigma, schema, requests)
}

/// Does some relation of a recorded `witness` shape hold more copies than
/// distinct tuples?
fn has_repeated_tuple(line: &str) -> bool {
    let Some((_, shape)) = line.split_once(": witness ") else { return false };
    shape.split(' ').any(|rel| {
        let (_, counts) = rel.split_once('=').expect("rel=tuples/sum");
        let (tuples, sum) = counts.split_once('/').expect("tuples/sum");
        sum.parse::<u64>().unwrap() > tuples.parse::<u64>().unwrap()
    })
}

#[test]
fn witnesses_match_the_committed_shapes() {
    let mut text = String::from(
        "# Separating-database shapes of the equivalence verdicts on equiv_batch.req,\n\
         # on 200 seeded Appendix-H (m=4) pairs and on two bag-semantics pairs over\n\
         # bag-valued relations: per relation, distinct tuples / multiplicity sum.\n\
         # Regenerated by the gated test in tests/tests/counterexample_search.rs.\n",
    );
    let (sigma, schema, requests) = equiv_batch_requests();
    let batch = record(&mut text, "equiv_batch", &sigma, &schema, &requests);
    let (sigma, schema, requests) = appendix_h_requests();
    let fresh = record(&mut text, "appendix_h", &sigma, &schema, &requests);
    let (sigma, schema, requests) = bag_amplification_requests();
    let amplified = record(&mut text, "bag_amplification", &sigma, &schema, &requests);

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/cex_witness_shapes.txt");
    if regen_fixtures() {
        std::fs::write(&path, &text).unwrap();
    }
    let committed = std::fs::read_to_string(&path)
        .expect("fixture missing — regenerate with EQSQL_REGEN_FIXTURES=1");
    for (n, (want, got)) in committed.lines().zip(text.lines()).enumerate() {
        assert_eq!(want, got, "fixture line {} drifted", n + 1);
    }
    assert_eq!(committed.lines().count(), text.lines().count(), "fixture length drifted");
    // The fixture exercises both the first family (a chased query's
    // canonical database) and the later, repaired candidates.
    let (chased, other) = (batch.0 + fresh.0 + amplified.0, batch.1 + fresh.1 + amplified.1);
    assert!(chased > 0 && other > 0, "witness mix: {chased} chased-canonical, {other} other");
    // ... and an amplified one (Lemma D.1): some relation repeats a tuple.
    assert!(text.lines().any(has_repeated_tuple), "no recorded witness repeats a tuple");
}

/// A [`SoundChaser`] that counts query chases and hands out one counting
/// guard: its `polls()` is the number of instance-chase steps the search
/// ran (query chases here are unguarded, and candidate checks do not
/// count as polls).
struct CountingChaser {
    chases: AtomicUsize,
    guard: RunGuard,
}

impl SoundChaser for CountingChaser {
    fn sound_chase(
        &self,
        sem: Semantics,
        q: &CqQuery,
        sigma: &DependencySet,
        schema: &Schema,
        config: &ChaseConfig,
    ) -> Result<SoundChased, ChaseError> {
        self.chases.fetch_add(1, Ordering::Relaxed);
        DirectChaser.sound_chase(sem, q, sigma, schema, config)
    }

    fn run_guard(&self) -> RunGuard {
        self.guard.clone()
    }
}

#[test]
fn search_stops_at_the_first_separating_candidate() {
    // equiv_batch.req: `pair: bagset | q1(X) :- s(X, Z) | q4(X) :- p(X, Y)`.
    // The canonical database of the chased q1 is one s-fact: q1 answers,
    // q4 does not.
    let file = parse_request_file(&equiv_batch_text()).expect("equiv_batch.req parses");
    let q1 = parse_query("q1(X) :- s(X, Z)").unwrap();
    let q2 = parse_query("q4(X) :- p(X, Y)").unwrap();
    let chaser =
        CountingChaser { chases: AtomicUsize::new(0), guard: RunGuard::with_cancel(Cancel::new()) };
    let db = separating_database_via(
        &chaser,
        Semantics::BagSet,
        &q1,
        &q2,
        &file.sigma,
        &file.schema,
        &file.config,
    )
    .expect("the chased q1's canonical database separates");
    assert_eq!(shape(&db), "s=1/1");
    assert_eq!(chaser.chases.load(Ordering::Relaxed), 1, "q2 was chased needlessly");
    assert_eq!(chaser.guard.polls(), 0, "instance-chase repairs ran needlessly");
}
