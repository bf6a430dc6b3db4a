//! Differential: observability must be inert. The instrumentation layer —
//! the engine step probes, the per-request trace spans — may never change
//! what the solver computes: verdicts, chase step counts and cache
//! hit/miss attribution must be bit-identical whether a solver runs
//! without a trace sink, with one, or without one again. While observing,
//! the solver must emit exactly one structured event per batch request.

use eqsql_gen::queries::{random_query, QueryParams};
use eqsql_gen::sigma::SigmaParams;
use eqsql_gen::{random_weakly_acyclic_sigma, rename_isomorphic};
use eqsql_relalg::{Schema, Semantics};
use eqsql_service::{Error, Request, RequestOpts, Solver, TraceSink, VecSink, Verdict};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn schema() -> Schema {
    let mut s = Schema::all_bags(&[("a", 2), ("b", 2), ("c", 3), ("d", 1)]);
    s.mark_set_valued(eqsql_cq::Predicate::new("b"));
    s.mark_set_valued(eqsql_cq::Predicate::new("c"));
    s
}

/// What one suite pass observed per round: verdict labels plus the
/// counters that pin the computation itself (steps and attribution).
#[derive(Debug, PartialEq, Eq)]
struct Observation {
    labels: Vec<String>,
    chase_steps: u64,
    cache_hits: u64,
    cache_misses: u64,
    entries: usize,
}

/// 150 random weakly acyclic draws, three semantics each, batched through
/// `decide_all` (the observing path) on a fresh solver per round. The RNG
/// is re-seeded per pass, so two passes see byte-identical inputs.
fn run_suite(observe: bool) -> Vec<Observation> {
    let schema = schema();
    let mut rng = StdRng::seed_from_u64(0x0B5);
    let mut out = Vec::new();
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
            rename_isomorphic(&mut rng, &q1)
        } else {
            random_query(&mut rng, &schema, &params)
        };
        let batch: Vec<Request> = [Semantics::Set, Semantics::Bag, Semantics::BagSet]
            .into_iter()
            .map(|sem| Request::Equivalent {
                q1: q1.clone(),
                q2: q2.clone(),
                opts: RequestOpts::with_sem(sem),
            })
            .collect();
        let sink = Arc::new(VecSink::new());
        let mut builder = Solver::builder(sigma, schema.clone());
        if observe {
            builder = builder.trace_sink(Arc::clone(&sink) as Arc<dyn TraceSink>);
        }
        let solver = builder.build();
        let report = solver.decide_all(&batch);
        if observe {
            let lines = sink.lines();
            assert_eq!(lines.len(), batch.len(), "round {round}: one event per request");
            for line in &lines {
                assert!(line.starts_with("verdict "), "round {round}: {line}");
                assert!(line.contains(" wall_us="), "round {round}: {line}");
                assert!(line.contains(" verb=equivalent "), "round {round}: {line}");
            }
        }
        let label = |v: &Result<Verdict, Error>| match v {
            Ok(v) => v.answer.label().to_string(),
            Err(e) => format!("{e:?}"),
        };
        out.push(Observation {
            labels: report.verdicts.iter().map(label).collect(),
            chase_steps: report.stats.chase_steps,
            cache_hits: report.stats.cache_hits,
            cache_misses: report.stats.cache_misses,
            entries: solver.stats().cache.entries,
        });
    }
    out
}

/// Three sequential passes over identical inputs: without a trace sink,
/// with one on every solver, and without one again.
#[test]
fn instrumentation_on_or_off_is_computation_identical() {
    let baseline = run_suite(false);
    let observed = run_suite(true);
    let again = run_suite(false);
    assert_eq!(baseline, observed, "enabling instrumentation changed a computation");
    assert_eq!(baseline, again, "disabling instrumentation did not restore the baseline");
}
