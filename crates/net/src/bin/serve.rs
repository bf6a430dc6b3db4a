//! `eqsql-serve` — drive a [`Solver`] from a request file, or put it
//! behind a TCP socket.
//!
//! ```text
//! eqsql-serve [--threads N] [--repeat K] [--cache-capacity C]
//!             [--cache-dir DIR] [--cache-read-only] [--snapshot-every N]
//!             [--deadline-ms MS] [--shed N] [--shed-policy reject-new|cancel-oldest]
//!             [--metrics] [--trace FILE] [--progress MS]
//!             [--strict] [--quiet] [--listen ADDR] FILE
//! ```
//!
//! Decides every request line of FILE (format: `eqsql_service::request` —
//! the full verb family: `pair`/`equivalent`, `contains`, `minimal`,
//! `cnb`, `implies`, with per-request semantics/budget overrides) over
//! the file's shared Σ and prints one verdict line per request plus batch
//! statistics. `--repeat K` re-runs the same batch K times against the
//! solver's (by then warm) cache — the simplest load test: run 1 pays for
//! the chases, runs 2..K measure the serving path.
//!
//! `--listen ADDR` switches to server mode (`eqsql_net`): FILE still
//! supplies Σ, the schema, the set-valued flags and default budgets, but
//! its request lines are ignored — requests arrive over the socket in
//! the same verb grammar, one per line (see the `eqsql_net` crate docs
//! for the wire protocol). The ops and observability flags wire through:
//! `--threads N` sizes the server's one decision pool, so at most N
//! requests decide at once across all connections; `--deadline-ms`
//! applies to every request; `--shed N` bounds the requests queued or
//! deciding across all connections (past it, `reject-new` sheds the
//! arriving request and `cancel-oldest` the oldest one still queued,
//! never one already deciding); `--cache-dir` persists the shared cache,
//! and `--metrics` or `--trace` turns observation on, which puts the
//! per-phase timings and attribution counters on every verdict line. The
//! bound address is printed as `listening on ADDR` (bind to port `0` for
//! an ephemeral port); the process runs until a client sends `drain`,
//! then prints the same `cache:`/`persist:`/`metric:` stat lines as file
//! mode.
//!
//! `--cache-dir DIR` persists the chase cache at DIR (append-only log +
//! compacted snapshots; see `eqsql_service::cache::persist`): a restarted
//! server over the same DIR answers previously decided chases from disk,
//! reported in the `persist:` stats line. `--snapshot-every N` sets the
//! compaction cadence (0 = never), `--cache-read-only` serves disk hits
//! without writing.
//!
//! Ops knobs map onto [`eqsql_service::BatchOptions`]: `--deadline-ms MS`
//! gives every request a wall-clock deadline (`0` = already expired —
//! deterministic timeout drills), `--shed N` bounds the admission queue
//! at N requests (shed policy per `--shed-policy`, default `reject-new`).
//! The exit code is SUCCESS even when verdicts are errors — an error
//! verdict is a decided outcome, reported in the `batch:` summary line —
//! unless `--strict` is given, which exits nonzero if any verdict is an
//! error.
//!
//! Observability (`eqsql_obs`, off by default so the serving path stays
//! step-identical; the solver observes exactly when it holds a trace
//! sink): `--metrics` turns instrumentation on and prints
//! `metric:`-prefixed summary lines at end of run (latency histogram
//! quantiles, cumulative per-phase timings, core counters); without
//! `--trace` its sink drops the record lines. `--trace FILE` writes each
//! decided request's record line to FILE — the `verdict …` line of the
//! `eqsql_net` wire protocol, with the observed fields (see
//! `eqsql_service::RequestRecord::render`; `id=` is the
//! request's index in the file, or its wire id under `--listen`);
//! `--progress MS` prints a liveness line to stderr every MS milliseconds
//! while the batch loop or the server runs.

use eqsql_net::{Server, ServerConfig};
use eqsql_service::{
    parse_request_file, AdmissionConfig, Answer, BatchOptions, CacheConfig, ChaseCache, Error,
    PersistConfig, Request, ShedPolicy, Solver, TraceSink, Verdict, WriteSink,
};
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: eqsql-serve [--threads N] [--repeat K] [--cache-capacity C] \
                     [--cache-dir DIR] [--cache-read-only] [--snapshot-every N] \
                     [--deadline-ms MS] [--shed N] [--shed-policy reject-new|cancel-oldest] \
                     [--metrics] [--trace FILE] [--progress MS] \
                     [--strict] [--quiet] [--listen ADDR] FILE";

struct Args {
    file: String,
    listen: Option<String>,
    threads: usize,
    repeat: usize,
    cache_capacity: usize,
    cache_dir: Option<String>,
    cache_read_only: bool,
    snapshot_every: Option<usize>,
    deadline_ms: Option<u64>,
    shed: Option<usize>,
    shed_policy: ShedPolicy,
    metrics: bool,
    trace: Option<String>,
    progress_ms: Option<u64>,
    strict: bool,
    quiet: bool,
}

enum ArgsOutcome {
    Run(Args),
    /// `--help`: print usage to stdout, exit success.
    Help,
}

fn parse_args() -> Result<ArgsOutcome, String> {
    let mut args = Args {
        file: String::new(),
        listen: None,
        threads: 1,
        repeat: 1,
        cache_capacity: CacheConfig::default().capacity,
        cache_dir: None,
        cache_read_only: false,
        snapshot_every: None,
        deadline_ms: None,
        shed: None,
        shed_policy: ShedPolicy::RejectNew,
        metrics: false,
        trace: None,
        progress_ms: None,
        strict: false,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut numeric = |name: &str| -> Result<usize, String> {
            it.next()
                .ok_or_else(|| format!("{name} wants a value"))?
                .parse::<usize>()
                .map_err(|_| format!("{name} wants a number"))
        };
        match a.as_str() {
            "--threads" => args.threads = numeric("--threads")?.max(1),
            "--repeat" => args.repeat = numeric("--repeat")?.max(1),
            "--cache-capacity" => args.cache_capacity = numeric("--cache-capacity")?.max(1),
            "--cache-dir" => {
                args.cache_dir = Some(it.next().ok_or("--cache-dir wants a directory")?)
            }
            "--cache-read-only" => args.cache_read_only = true,
            "--snapshot-every" => args.snapshot_every = Some(numeric("--snapshot-every")?),
            "--deadline-ms" => args.deadline_ms = Some(numeric("--deadline-ms")? as u64),
            "--shed" => args.shed = Some(numeric("--shed")?.max(1)),
            "--shed-policy" => {
                let v = it.next().ok_or("--shed-policy wants a value")?;
                args.shed_policy = match v.as_str() {
                    "reject-new" => ShedPolicy::RejectNew,
                    "cancel-oldest" => ShedPolicy::CancelOldest,
                    other => {
                        return Err(format!(
                            "unknown shed policy {other:?} (want reject-new|cancel-oldest)"
                        ))
                    }
                };
            }
            "--listen" => args.listen = Some(it.next().ok_or("--listen wants an address")?),
            "--metrics" => args.metrics = true,
            "--trace" => args.trace = Some(it.next().ok_or("--trace wants a file")?),
            "--progress" => args.progress_ms = Some(numeric("--progress")?.max(1) as u64),
            "--strict" => args.strict = true,
            "--quiet" => args.quiet = true,
            "--help" | "-h" => return Ok(ArgsOutcome::Help),
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other if args.file.is_empty() => args.file = other.to_string(),
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    if args.file.is_empty() {
        return Err("missing request FILE (see --help)".to_string());
    }
    Ok(ArgsOutcome::Run(args))
}

/// One human-readable line per request/verdict pair.
fn render(req: &Request, verdict: &Result<Verdict, Error>) -> String {
    let subject = match req {
        Request::Equivalent { q1, q2, opts } => {
            let sem = opts.sem.map(|s| s.to_string()).unwrap_or_else(|| "S".into());
            format!("[{sem}] {q1}  ≡?  {q2}")
        }
        Request::Contained { q1, q2, .. } => format!("[S] {q1}  ⊑?  {q2}"),
        Request::BagContained { q1, q2, .. } => format!("[B] {q1}  ⊑?  {q2}"),
        Request::Minimal { q, .. } => format!("minimal? {q}"),
        Request::Reformulate { q, .. } => format!("cnb {q}"),
        Request::Implies { dep, .. } => format!("Σ ⊨? {dep}"),
        Request::ChaseInstance { .. } => "chase-instance".to_string(),
    };
    let outcome = match verdict {
        Err(e) => format!("error ({e})"),
        Ok(v) => match &v.answer {
            Answer::Equivalent { .. } => "equivalent".to_string(),
            Answer::NotEquivalent { counterexample } => format!(
                "not-equivalent{}",
                if counterexample.is_some() { " (witness found)" } else { "" }
            ),
            Answer::Contained { .. } => "contained".to_string(),
            Answer::NotContained { .. } => "not-contained".to_string(),
            Answer::BagContained { .. } => "contained".to_string(),
            Answer::BagNotContained { .. } => "not-contained".to_string(),
            Answer::BagContainmentOpen => "open".to_string(),
            Answer::Minimal => "minimal".to_string(),
            Answer::NotMinimal { witness } => {
                format!("not-minimal (reduces to {})", witness.reduced)
            }
            Answer::Reformulated { reformulations, candidates_tested, .. } => format!(
                "{} reformulation(s) from {} candidate(s): {}",
                reformulations.len(),
                candidates_tested,
                reformulations.iter().map(|q| q.to_string()).collect::<Vec<_>>().join("  ;  "),
            ),
            Answer::Implied { vacuous: true, .. } => "implied (vacuously)".to_string(),
            Answer::Implied { .. } => "implied".to_string(),
            Answer::NotImplied { .. } => "not-implied".to_string(),
            Answer::ChasedInstance { steps, .. } => format!("repaired in {steps} step(s)"),
        },
    };
    format!("{subject}  →  {outcome}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(ArgsOutcome::Run(a)) => a,
        Ok(ArgsOutcome::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let text = match std::fs::read_to_string(&args.file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("eqsql-serve: cannot read {}: {e}", args.file);
            return ExitCode::FAILURE;
        }
    };
    let request = match parse_request_file(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("eqsql-serve: {}: {}", args.file, Error::from(e));
            return ExitCode::FAILURE;
        }
    };
    let persist = args.cache_dir.as_ref().map(|dir| {
        let mut p = PersistConfig::at(dir);
        p.read_only = args.cache_read_only;
        if let Some(every) = args.snapshot_every {
            p.snapshot_every = every;
        }
        p
    });
    let cache = match ChaseCache::open(CacheConfig {
        capacity: args.cache_capacity,
        persist,
        ..CacheConfig::default()
    }) {
        Ok(c) => Arc::new(c),
        Err(e) => {
            let dir = args.cache_dir.as_deref().unwrap_or("");
            eprintln!("eqsql-serve: cannot open cache dir {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Observability is opt-in: a trace sink is the solver's one switch, so
    // a plain run keeps the zero-cost (step-identical) unobserved path.
    // `--metrics` alone observes into a sink that drops the lines.
    let trace_sink: Option<Arc<dyn TraceSink>> = match &args.trace {
        Some(path) => match std::fs::File::create(path) {
            Ok(f) => Some(Arc::new(WriteSink::new(f))),
            Err(e) => {
                eprintln!("eqsql-serve: cannot create trace file {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None if args.metrics => Some(Arc::new(WriteSink::new(std::io::sink()))),
        None => None,
    };
    let mut builder = Solver::builder(request.sigma, request.schema)
        .chase_config(request.config)
        .cache(Arc::clone(&cache))
        .threads(args.threads);
    if let Some(sink) = trace_sink {
        builder = builder.trace_sink(sink);
    }
    let solver = builder.build();
    let batch_opts = BatchOptions {
        deadline_ms: args.deadline_ms,
        admission: args.shed.map(|capacity| AdmissionConfig { capacity, policy: args.shed_policy }),
        ..BatchOptions::default()
    };
    if let Some(addr) = &args.listen {
        return run_listen(&args, solver, batch_opts, addr);
    }

    let start = Instant::now();
    let report = with_progress(&solver, args.progress_ms, || {
        let mut last = None;
        for run in 0..args.repeat {
            let report = solver.decide_all_streaming(&request.requests, &batch_opts, &|_| {});
            if run == 0 && !args.quiet {
                for (req, verdict) in request.requests.iter().zip(report.verdicts.iter()) {
                    println!("{}", render(req, verdict));
                }
            }
            last = Some(report);
        }
        last.expect("repeat >= 1")
    });
    let total = start.elapsed();
    let positive = report
        .verdicts
        .iter()
        .filter(|v| v.as_ref().map(Verdict::is_positive).unwrap_or(false))
        .count();
    let errors = report.verdicts.iter().filter(|v| v.is_err()).count();
    let other = report.verdicts.len() - positive - errors;
    println!(
        "batch: {} requests ({} positive, {} other, {} errors) on {} thread(s)",
        report.verdicts.len(),
        positive,
        other,
        errors,
        report.threads
    );
    print_core_stats(&solver, &args);
    println!(
        "timing: last run {:?}, {} run(s) total {:?} ({:.1} requests/s overall)",
        report.stats.wall,
        args.repeat,
        total,
        (report.verdicts.len() * args.repeat) as f64 / total.as_secs_f64().max(f64::EPSILON)
    );
    print_metric_stats(&solver, &args);
    if args.strict && errors > 0 {
        eprintln!("eqsql-serve: --strict: {errors} error verdict(s)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Runs `body` while, with `--progress MS`, a liveness line goes to stderr
/// every MS milliseconds. The reporter is a scoped thread borrowing the
/// solver, parked between ticks and unparked for a prompt exit once
/// `body` returns.
fn with_progress<R>(solver: &Solver, progress_ms: Option<u64>, body: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let progress = progress_ms.map(|ms| {
            let done = &done;
            scope.spawn(move || loop {
                std::thread::park_timeout(Duration::from_millis(ms));
                if done.load(Ordering::Acquire) {
                    break;
                }
                let s = solver.stats();
                eprintln!(
                    "progress: {} request(s) decided, {} cache hit(s), \
                     {} miss(es), {} shed, {:.1}s elapsed",
                    s.requests,
                    s.cache.hits,
                    s.cache.misses,
                    s.shed,
                    start.elapsed().as_secs_f64()
                );
            })
        });
        let out = body();
        done.store(true, Ordering::Release);
        if let Some(handle) = progress {
            handle.thread().unpark();
        }
        out
    })
}

/// The `cache:`/`persist:`/`backpressure:` stat lines, shared between
/// file and listen mode.
fn print_core_stats(solver: &Solver, args: &Args) {
    let s = solver.stats();
    // Anything new on this line goes *after* "misses" — bench_snapshot.sh
    // parses the `cache: N hits, M misses` prefix with a suffix-tolerant sed.
    let (occ_min, occ_max) = (
        s.cache.shard_entries.iter().min().copied().unwrap_or(0),
        s.cache.shard_entries.iter().max().copied().unwrap_or(0),
    );
    println!(
        "cache: {} hits, {} misses, {} evictions, {} entries resident \
         ({} requests, {} batches); {} disk hit(s), {} io error(s); \
         shard occupancy min {} max {}",
        s.cache.hits,
        s.cache.misses,
        s.cache.evictions,
        s.cache.entries,
        s.requests,
        s.batches,
        s.cache.persist.disk_hits,
        s.cache.persist.io_errors,
        occ_min,
        occ_max
    );
    if args.cache_dir.is_some() {
        let p = s.cache.persist;
        println!(
            "persist: {} loaded, {} recovered, {} discarded, {} snapshots, \
             {} appended, {} disk hits{}",
            p.loaded,
            p.recovered,
            p.discarded,
            p.snapshots,
            p.appended,
            p.disk_hits,
            if p.io_errors > 0 { format!(", {} io errors", p.io_errors) } else { String::new() }
        );
    }
    if s.shed > 0 || s.retries > 0 || s.panics > 0 {
        println!("backpressure: {} shed, {} retries, {} panics", s.shed, s.retries, s.panics);
    }
}

/// The `metric:` lines (`--metrics` only), shared between modes.
fn print_metric_stats(solver: &Solver, args: &Args) {
    if !args.metrics {
        return;
    }
    let s = solver.stats();
    let p = s.phase;
    println!("metric: latency {}", s.latency);
    println!(
        "metric: phase queue_us={} regularize_us={} chase_us={} cache_us={} evidence_us={}",
        p.queue_us, p.regularize_us, p.chase_us, p.cache_us, p.evidence_us
    );
    println!(
        "metric: counters requests={} batches={} shed={} retries={} panics={} \
         cache_hits={} cache_misses={} disk_hits={}",
        s.requests,
        s.batches,
        s.shed,
        s.retries,
        s.panics,
        s.cache.hits,
        s.cache.misses,
        s.cache.persist.disk_hits
    );
}

/// `--listen` mode: put the solver behind a TCP socket and run until a
/// client drains it.
fn run_listen(args: &Args, solver: Solver, batch_opts: BatchOptions, addr: &str) -> ExitCode {
    let solver = Arc::new(solver);
    let config = ServerConfig { batch: batch_opts, ..ServerConfig::default() };
    let server = match Server::start(Arc::clone(&solver), addr, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("eqsql-serve: cannot listen on {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Printed (and flushed) even under --quiet: with `--listen :0` this
    // line is how a caller learns the actual port.
    println!("listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();
    let start = Instant::now();
    let report = with_progress(&solver, args.progress_ms, || server.join());
    println!(
        "net: {} connection(s) accepted, {} rejected, {} request(s) served in {:.1}s",
        report.connections,
        report.rejected,
        report.served,
        start.elapsed().as_secs_f64()
    );
    print_core_stats(&solver, args);
    print_metric_stats(&solver, args);
    ExitCode::SUCCESS
}
