//! The equiv_batch workload, shared between the `equiv_batch` and
//! `persist` benches, the persistence test suite, and the
//! `equiv_batch.req` fixture generator — one definition so the benched
//! stream, the served stream, and the committed request file cannot drift
//! apart.

use crate::{schema_4_1, sigma_4_1};
use eqsql_cq::{parse_query, CqQuery};
use eqsql_deps::{parse_dependencies, DependencySet};
use eqsql_gen::rename_isomorphic;
use eqsql_net::Client;
use eqsql_obs::{Histogram, HistogramSummary};
use eqsql_relalg::{Schema, Semantics};
use eqsql_service::{Request, RequestOpts, Solver};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// Example 4.1's Σ deepened with inclusion chains off `r` and `u` — the
/// depth a real universal plan accumulates — so every candidate touching
/// `r`/`u` chases through several more strata.
pub fn workload_sigma() -> DependencySet {
    let mut sigma = sigma_4_1();
    let chains = parse_dependencies(
        "r(X) -> r1(X,A).\n\
         r1(X,A) -> r2(A,B).\n\
         r2(A,B) -> r3(B).\n\
         u(X,Z) -> u1(Z,C).\n\
         u1(Z,C) -> u2(C).",
    )
    .expect("chains parse");
    for d in chains.iter() {
        sigma.push(d.clone());
    }
    sigma
}

/// [`schema_4_1`] extended with the chain relations of [`workload_sigma`].
pub fn workload_schema() -> Schema {
    let mut schema = schema_4_1();
    for (name, arity) in [("r1", 2), ("r2", 2), ("r3", 1), ("u1", 2), ("u2", 1)] {
        schema.add(eqsql_relalg::RelSchema::bag(name, arity));
    }
    schema
}

/// Every safe subquery of Q1's body vs Q4, twice (α-renamed), per
/// semantics — 118 [`Request::Equivalent`] pairs. This is exactly what
/// the backchase issues: many structurally overlapping candidates
/// re-chased over one fixed Σ, with Q4 recurring in every pair.
/// Deterministic (fixed seed), so the committed `equiv_batch.req` fixture
/// reproduces it byte for byte.
pub fn repeated_subquery_pairs() -> Vec<Request> {
    let q1 = parse_query("q1(X) :- p(X,Y), t(X,Y,W), s(X,Z), r(X), u(X,U)").unwrap();
    let q4 = parse_query("q4(X) :- p(X,Y)").unwrap();
    let mut rng = StdRng::seed_from_u64(41);
    let n = q1.body.len();
    let mut pairs = Vec::new();
    for mask in 1u32..(1 << n) {
        let body: Vec<_> =
            (0..n).filter(|i| mask & (1 << i) != 0).map(|i| q1.body[i].clone()).collect();
        let candidate = CqQuery { name: q1.name, head: q1.head.clone(), body };
        if !candidate.is_safe() {
            continue;
        }
        for sem in [Semantics::Set, Semantics::BagSet] {
            let opts = RequestOpts::with_sem(sem);
            pairs.push(Request::Equivalent { q1: candidate.clone(), q2: q4.clone(), opts });
            pairs.push(Request::Equivalent {
                q1: rename_isomorphic(&mut rng, &candidate),
                q2: rename_isomorphic(&mut rng, &q4),
                opts,
            });
        }
    }
    pairs
}

/// Renders the workload as an `eqsql-serve` request file (the format of
/// `eqsql_service::request`): Σ lines, the `set_valued:` line, then one
/// `pair:` line per [`repeated_subquery_pairs`] entry. Committed as
/// `crates/service/fixtures/equiv_batch.req` so scripts can drive the
/// server with the benched workload.
pub fn equiv_batch_request_file() -> String {
    let sigma = workload_sigma();
    let schema = workload_schema();
    let mut out = String::new();
    out.push_str("# The equiv_batch workload: repeated C&B-style subquery pairs over\n");
    out.push_str("# Example 4.1's Σ deepened with inclusion chains (see eqsql-bench).\n");
    out.push_str("# Regenerated by the gated fixture test in tests/tests/persist_recovery.rs.\n");
    for dep in sigma.iter() {
        out.push_str(&format!("sigma: {dep}.\n"));
    }
    let mut set_valued: Vec<&str> =
        schema.set_valued_relations().into_iter().map(|p| p.name()).collect();
    set_valued.sort_unstable();
    out.push_str(&format!("set_valued: {}\n\n", set_valued.join(" ")));
    for pair in repeated_subquery_pairs() {
        let Request::Equivalent { q1, q2, opts } = pair else {
            unreachable!("the workload holds only equivalence pairs")
        };
        let sem = match opts.sem.expect("every workload pair names its semantics") {
            Semantics::Set => "set",
            Semantics::Bag => "bag",
            Semantics::BagSet => "bagset",
        };
        out.push_str(&format!("pair: {sem} | {q1} | {q2}\n"));
    }
    out
}

/// How [`run_load`] issues requests against the solver.
#[derive(Clone, Copy, Debug)]
pub enum LoadMode {
    /// Closed loop: `workers` threads, each issuing its next request the
    /// moment the previous one completes. Latency is pure service time;
    /// achieved QPS is the solver's capacity at that concurrency.
    Closed {
        /// Concurrent client threads.
        workers: usize,
    },
    /// Open loop: arrivals are scheduled on a fixed `1 / target_qps` grid
    /// regardless of completions, and latency is measured from the
    /// *scheduled* arrival, not the moment a worker got around to sending —
    /// a backed-up solver accrues visible queueing delay instead of
    /// silently slowing the generator down (no coordinated omission).
    Open {
        /// Worker threads draining the arrival schedule.
        workers: usize,
        /// Scheduled arrival rate, requests per second.
        target_qps: f64,
    },
}

/// What a [`run_load`] run measured.
#[derive(Clone, Copy, Debug)]
pub struct LoadReport {
    /// Requests issued (cycling over the workload).
    pub issued: usize,
    /// Requests whose verdict was an error.
    pub errors: usize,
    /// Wall time of the whole run.
    pub wall: Duration,
    /// `issued / wall` — for a closed loop, capacity at that concurrency;
    /// for an open loop, how close the solver kept to the target rate.
    pub achieved_qps: f64,
    /// Per-request latency quantiles, in microseconds.
    pub latency: HistogramSummary,
}

/// Drives `total` requests (cycling over `requests`) through
/// `solver.decide` from `mode`'s worker pool and reports latency
/// quantiles plus achieved QPS. Latencies are measured *here*, around the
/// public `decide` call, so the harness needs no instrumentation inside
/// the solver — which is exactly what lets `scripts/bench_snapshot.sh`
/// use it to bound the overhead of the disabled observability layer.
pub fn run_load(solver: &Solver, requests: &[Request], total: usize, mode: LoadMode) -> LoadReport {
    assert!(!requests.is_empty(), "load harness needs at least one request");
    let (workers, interval) = match mode {
        LoadMode::Closed { workers } => (workers.max(1), None),
        LoadMode::Open { workers, target_qps } => {
            assert!(target_qps > 0.0, "open loop wants a positive target QPS");
            (workers.max(1), Some(Duration::from_secs_f64(1.0 / target_qps)))
        }
    };
    let hist = Histogram::new();
    let errors = AtomicUsize::new(0);
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                let issued_at = match interval {
                    None => Instant::now(),
                    Some(step) => {
                        let scheduled = start + step.mul_f64(i as f64);
                        if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                            if !wait.is_zero() {
                                std::thread::sleep(wait);
                            }
                        }
                        scheduled
                    }
                };
                if solver.decide(&requests[i % requests.len()]).is_err() {
                    errors.fetch_add(1, Ordering::Relaxed);
                }
                hist.record(issued_at.elapsed().as_micros() as u64);
            });
        }
    });
    let wall = start.elapsed();
    LoadReport {
        issued: total,
        errors: errors.into_inner(),
        wall,
        achieved_qps: total as f64 / wall.as_secs_f64().max(f64::EPSILON),
        latency: hist.summary(),
    }
}

/// [`run_load`] over a live socket: the same closed/open worker pool,
/// but each worker drives one [`eqsql_net::Client`] connection against
/// the server at `addr`, one in-flight request per connection (send,
/// await the verdict, repeat). Every worker connects and round-trips a
/// `ping` before the clock starts, so connection setup is reported on its
/// own ([`NetLoadReport::connect`]) instead of landing in the first
/// samples. Latency therefore includes the wire — framing, kernel round
/// trip, server-side queueing — measured from the same points as
/// [`run_load`]: send (closed) or scheduled arrival (open). A verdict
/// with `terminal != "ok"` counts as an error; a transport failure aborts
/// the run with the underlying `io::Error`.
pub fn run_load_connect(
    addr: &str,
    lines: &[String],
    total: usize,
    mode: LoadMode,
) -> io::Result<NetLoadReport> {
    assert!(!lines.is_empty(), "load harness needs at least one request line");
    let (workers, interval) = match mode {
        LoadMode::Closed { workers } => (workers.max(1), None),
        LoadMode::Open { workers, target_qps } => {
            assert!(target_qps > 0.0, "open loop wants a positive target QPS");
            (workers.max(1), Some(Duration::from_secs_f64(1.0 / target_qps)))
        }
    };
    let hist = Histogram::new();
    let errors = AtomicUsize::new(0);
    let next = AtomicUsize::new(0);
    let ready = Barrier::new(workers);
    // Set by the first worker past the barrier: every connection is open.
    let clock: OnceLock<Instant> = OnceLock::new();
    let worker = || -> io::Result<Duration> {
        let setup = Instant::now();
        let connected = Client::connect(addr).and_then(|mut client| {
            if client.ping()? {
                Ok(client)
            } else {
                Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed before pong"))
            }
        });
        let connect = setup.elapsed();
        // A worker that failed to connect still arrives, so the others
        // are not left waiting; the run then reports its error.
        ready.wait();
        let start = *clock.get_or_init(Instant::now);
        let mut client = connected?;
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= total {
                return Ok(connect);
            }
            let issued_at = match interval {
                None => Instant::now(),
                Some(step) => {
                    let scheduled = start + step.mul_f64(i as f64);
                    if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                        if !wait.is_zero() {
                            std::thread::sleep(wait);
                        }
                    }
                    scheduled
                }
            };
            client.send(&lines[i % lines.len()])?;
            match client.recv_verdict()? {
                Some(v) if v.terminal == "ok" => {}
                Some(_) => {
                    errors.fetch_add(1, Ordering::Relaxed);
                }
                None => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed mid-run",
                    ));
                }
            }
            hist.record(issued_at.elapsed().as_micros() as u64);
        }
    };
    let results: Vec<io::Result<Duration>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        handles.into_iter().map(|h| h.join().expect("load worker panicked")).collect()
    });
    let mut connect = Duration::ZERO;
    for r in results {
        connect = connect.max(r?);
    }
    let wall = clock.get().expect("every worker passed the barrier").elapsed();
    Ok(NetLoadReport {
        load: LoadReport {
            issued: total,
            errors: errors.into_inner(),
            wall,
            achieved_qps: total as f64 / wall.as_secs_f64().max(f64::EPSILON),
            latency: hist.summary(),
        },
        connect,
    })
}

/// What a [`run_load_connect`] run measured.
#[derive(Clone, Copy, Debug)]
pub struct NetLoadReport {
    /// The timed run, from the moment every connection was ready.
    pub load: LoadReport,
    /// The slowest worker's connection setup (connect plus one `ping`
    /// round trip), before the clock started.
    pub connect: Duration,
}
