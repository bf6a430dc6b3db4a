//! `loadgen` — closed/open-loop load harness over an `eqsql-serve` request
//! file, printing one JSON object for `scripts/bench_snapshot.sh`.
//!
//! ```text
//! loadgen [--workers N] [--qps Q] [--passes K] [--connect ADDR] [--drain] [FILE]
//! ```
//!
//! FILE defaults to the committed `crates/service/fixtures/equiv_batch.req`
//! fixture. The run is three phases over one solver:
//!
//! 1. **cold** closed loop — one pass over the workload against an empty
//!    chase cache, `--workers` concurrent clients (every chase is paid);
//! 2. **warm** closed loop — `--passes` more passes on the now-warm cache
//!    (the serving path: cache probes, evidence, dispatch);
//! 3. **open** loop at `--qps` over the warm cache, latency measured from
//!    each request's *scheduled* arrival (coordinated-omission-free).
//!
//! Latencies are measured in this binary around the public
//! [`Solver::decide`] call with instrumentation left **off**, so snapshot
//! deltas across PRs bound the disabled observability layer's overhead.
//! The JSON goes to stdout; a human-readable summary goes to stderr.
//!
//! With `--connect ADDR` the same three phases run against a live
//! `eqsql-serve --listen` server instead of an in-process solver: FILE's
//! verb lines are replayed over `--workers` concurrent
//! [`eqsql_net::Client`] connections (the server must have been started
//! from the same file, since it pins the schema and Σ), so the reported
//! latencies include the wire. Each phase opens its connections and pings
//! them before its clock starts; the slowest connect + ping of any phase
//! is reported as `"connect_us"`. The JSON gains a `"connect"` key (the
//! address); `scripts/bench_snapshot.sh` stores it under `net` in
//! `BENCH_chase.json`. `--drain` asks the server to shut down gracefully
//! after the measurement.

use eqsql_bench::workloads::{run_load, run_load_connect, LoadMode, LoadReport};
use eqsql_net::Client;
use eqsql_service::{parse_request_file, request_lines, Error, Solver};
use std::process::ExitCode;

const USAGE: &str =
    "usage: loadgen [--workers N] [--qps Q] [--passes K] [--connect ADDR] [--drain] [FILE]";

fn json_phase(r: &LoadReport) -> String {
    let l = r.latency;
    format!(
        "{{\"count\":{},\"errors\":{},\"achieved_qps\":{:.1},\"mean_us\":{},\
         \"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\"max_us\":{}}}",
        r.issued, r.errors, r.achieved_qps, l.mean, l.p50, l.p90, l.p99, l.max
    )
}

fn main() -> ExitCode {
    let mut file = "crates/service/fixtures/equiv_batch.req".to_string();
    let mut workers = 4usize;
    let mut qps = 200.0f64;
    let mut passes = 2usize;
    let mut connect: Option<String> = None;
    let mut drain = false;
    let mut saw_file = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} wants a value"));
        let parsed = match a.as_str() {
            "--workers" => value("--workers").and_then(|v| {
                v.parse().map(|n: usize| workers = n.max(1)).map_err(|e| e.to_string())
            }),
            "--qps" => value("--qps")
                .and_then(|v| v.parse().map(|q: f64| qps = q.max(1.0)).map_err(|e| e.to_string())),
            "--passes" => value("--passes").and_then(|v| {
                v.parse().map(|k: usize| passes = k.max(1)).map_err(|e| e.to_string())
            }),
            "--connect" => value("--connect").map(|v| connect = Some(v)),
            "--drain" => {
                drain = true;
                Ok(())
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => Err(format!("unknown flag {other}")),
            other if !saw_file => {
                saw_file = true;
                file = other.to_string();
                Ok(())
            }
            other => Err(format!("unexpected argument {other}")),
        };
        if let Err(msg) = parsed {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    }

    let text = match std::fs::read_to_string(&file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("loadgen: cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(addr) = connect {
        return run_net(&addr, &file, &text, workers, qps, passes, drain);
    }
    let parsed = match parse_request_file(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("loadgen: {file}: {}", Error::from(e));
            return ExitCode::FAILURE;
        }
    };
    let solver = Solver::builder(parsed.sigma, parsed.schema).chase_config(parsed.config).build();
    let n = parsed.requests.len();

    let cold = run_load(&solver, &parsed.requests, n, LoadMode::Closed { workers });
    eprintln!(
        "loadgen: cold closed loop: {} requests, {:.1} qps, p50 {}us p99 {}us",
        cold.issued, cold.achieved_qps, cold.latency.p50, cold.latency.p99
    );
    let warm = run_load(&solver, &parsed.requests, n * passes, LoadMode::Closed { workers });
    eprintln!(
        "loadgen: warm closed loop: {} requests, {:.1} qps, p50 {}us p99 {}us",
        warm.issued, warm.achieved_qps, warm.latency.p50, warm.latency.p99
    );
    let open = run_load(
        &solver,
        &parsed.requests,
        n * passes,
        LoadMode::Open { workers, target_qps: qps },
    );
    eprintln!(
        "loadgen: open loop @ {qps:.0} qps target: achieved {:.1} qps, p50 {}us p99 {}us",
        open.achieved_qps, open.latency.p50, open.latency.p99
    );

    let total_errors = cold.errors + warm.errors + open.errors;
    println!(
        "{{\"workload\":{file:?},\"requests\":{n},\"workers\":{workers},\
         \"closed\":{{\"cold\":{},\"warm\":{}}},\
         \"open\":{{\"target_qps\":{qps:.1},\"warm\":{}}}}}",
        json_phase(&cold),
        json_phase(&warm),
        json_phase(&open)
    );
    if total_errors > 0 {
        eprintln!("loadgen: {total_errors} error verdict(s) under load");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The `--connect` path: the same cold/warm/open phases, but replayed
/// over client connections to a running server.
fn run_net(
    addr: &str,
    file: &str,
    text: &str,
    workers: usize,
    qps: f64,
    passes: usize,
    drain: bool,
) -> ExitCode {
    let lines = request_lines(text);
    if lines.is_empty() {
        eprintln!("loadgen: {file} has no request lines");
        return ExitCode::FAILURE;
    }
    let n = lines.len();
    let connect = std::cell::Cell::new(std::time::Duration::ZERO);
    let phase = |total: usize, mode: LoadMode| {
        run_load_connect(addr, &lines, total, mode).map(|r| {
            connect.set(connect.get().max(r.connect));
            r.load
        })
    };

    let cold = match phase(n, LoadMode::Closed { workers }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("loadgen: connect {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "loadgen: net cold closed loop: {} requests, {:.1} qps, p50 {}us p99 {}us",
        cold.issued, cold.achieved_qps, cold.latency.p50, cold.latency.p99
    );
    let warm = match phase(n * passes, LoadMode::Closed { workers }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("loadgen: connect {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "loadgen: net warm closed loop: {} requests, {:.1} qps, p50 {}us p99 {}us",
        warm.issued, warm.achieved_qps, warm.latency.p50, warm.latency.p99
    );
    let open = match phase(n * passes, LoadMode::Open { workers, target_qps: qps }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("loadgen: connect {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "loadgen: net open loop @ {qps:.0} qps target: achieved {:.1} qps, p50 {}us p99 {}us",
        open.achieved_qps, open.latency.p50, open.latency.p99
    );

    if drain {
        match Client::connect(addr).and_then(|mut c| c.drain()) {
            Ok(()) => eprintln!("loadgen: server draining"),
            Err(e) => {
                eprintln!("loadgen: drain: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let total_errors = cold.errors + warm.errors + open.errors;
    println!(
        "{{\"workload\":{file:?},\"connect\":{addr:?},\"connect_us\":{},\"requests\":{n},\
         \"workers\":{workers},\
         \"closed\":{{\"cold\":{},\"warm\":{}}},\
         \"open\":{{\"target_qps\":{qps:.1},\"warm\":{}}}}}",
        connect.get().as_micros(),
        json_phase(&cold),
        json_phase(&warm),
        json_phase(&open)
    );
    if total_errors > 0 {
        eprintln!("loadgen: {total_errors} error verdict(s) under load");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
