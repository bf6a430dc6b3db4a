//! # eqsql-service — the serving layer: one typed [`Solver`] over the
//! whole decision family, batched, cached, evidence-carrying
//!
//! The decision procedures of Chirkova & Genesereth (PODS 2009) —
//! Σ-equivalence under set/bag/bag-set semantics (Theorems 2.2/6.1/6.2),
//! set containment, Σ-minimality (Definition 3.1), the C&B reformulation
//! family, bag containment, dependency implication, the instance chase —
//! all reduce to *sound chases to termination* followed by cheap
//! dependency-free tests. This crate is their single public entry point
//! and the layer that removes redundant chase work:
//!
//! * [`solver`] — the façade. A [`SolverBuilder`] captures chase
//!   budgets, cache sizing and worker threads; [`Solver::decide`] answers any
//!   [`Request`] with a typed [`Verdict`] whose [`Answer`] carries
//!   machine-checkable evidence (a request without a semantics is
//!   decided under set semantics); [`Solver::decide_all`] dispatches a
//!   batch across a worker pool ([`Solver::decide_all_streaming`] adds
//!   a per-request [`RequestRecord`] callback, deadlines, cancellation,
//!   admission control and retry — [`BatchOptions`]); [`Solver::stats`]
//!   is one coherent counter snapshot. Failures surface through the unified
//!   [`Error`] taxonomy of [`error`] — parse, budget, egd-failure,
//!   unsupported-semantics, deadline, cancellation, shed, internal —
//!   regardless of which crate they began in.
//!
//!   ```
//!   use eqsql_cq::parse_query;
//!   use eqsql_deps::parse_dependencies;
//!   use eqsql_relalg::Schema;
//!   use eqsql_service::{Answer, Request, RequestOpts, Solver};
//!
//!   let sigma = parse_dependencies(
//!       "p(X,Y) -> s(X,Z). s(X,Y) & s(X,Z) -> Y = Z.",
//!   ).unwrap();
//!   let mut schema = Schema::all_bags(&[("p", 2), ("s", 2)]);
//!   schema.mark_set_valued(eqsql_cq::Predicate::new("s"));
//!
//!   let solver = Solver::builder(sigma, schema).threads(2).build();
//!   let req = Request::Equivalent {
//!       q1: parse_query("q(X) :- p(X,Y)").unwrap(),
//!       q2: parse_query("q(X) :- p(X,Y), s(X,Z)").unwrap(),
//!       opts: RequestOpts::default(),
//!   };
//!   let verdict = solver.decide(&req).unwrap();
//!   assert!(matches!(verdict.answer, Answer::Equivalent { .. }));
//!   // The verdict's certificate replays against the inputs:
//!   verdict.verify(&req, solver.sigma(), solver.schema()).unwrap();
//!   ```
//!
//! * [`record`] — the [`RequestRecord`] each served request closes into,
//!   and its one line: the `eqsql_net` verdict response and the trace
//!   line alike;
//! * [`evidence`] — the certificate types verdicts carry (witnessing
//!   homomorphisms per containment direction, isomorphism bijections,
//!   separating databases, minimality witnesses) and their `verify`
//!   replays, used by the randomized suite to prove evidence is real
//!   rather than decorative;
//! * [`canon`] — renaming-invariant fingerprints of `(query, Σ,
//!   semantics, set-valuedness flags, budgets)`, the cache key material;
//! * [`cache`] — the sharded `(Q, Σ)` chase-result cache: fingerprint
//!   buckets confirmed by exact isomorphism, α-equivalent probes replayed
//!   through the witnessing bijection, terminal errors cached alongside
//!   terminal results (see the cache-key soundness notes in [`cache`]),
//!   with an optional disk tier ([`cache::persist`]) that survives
//!   restarts;
//! * [`request`] — the newline-delimited request-file format of the
//!   `eqsql-serve` binary, covering the full verb family (`pair`/
//!   `equivalent`, `contains`, `minimal`, `cnb`, `implies`) with
//!   per-request semantics and budget overrides. The same verb grammar is
//!   the wire format of the `eqsql_net` TCP server (one request per line,
//!   via [`request::parse_request_line`]); see the "Wire protocol"
//!   section of the `eqsql_net` crate docs for framing, response lines
//!   and control verbs.
//!
//! ## Cache-key soundness
//!
//! A cache hit must be indistinguishable from a fresh chase. The sound
//! chase commutes with α-renaming, so one terminal per α-class suffices,
//! replayed through the class bijection; fingerprints are necessary but
//! never sufficient — every probe is confirmed by exact isomorphism (and
//! exact context equality) before an entry is trusted. See [`cache`] and
//! [`canon`] for the full argument and the poisoning-guard tests.
//!
//! ## Persistence format & recovery guarantees
//!
//! With [`CacheConfig::persist`] set (through [`SolverBuilder::cache_config`]
//! or `eqsql-serve --cache-dir`), terminal chase results survive restarts in
//! an append-only record log plus a periodically compacted snapshot:
//!
//! * **Record layout.** Both files open with an 8-byte magic and a
//!   little-endian format version; each record is `body_len (u32) ·
//!   FNV-1a-64 checksum · body`. A body stores the full entry *by
//!   structure*: the context key material (semantics, a `reserved` byte
//!   that is always 0, budgets, sorted set-valued relations, the
//!   regularized Σ as tgd/egd trees), the representative query, and the
//!   outcome — a terminal chase (terminal query, failure flag, steps,
//!   renaming) or a cacheable terminal error by its stable wire code.
//!   Fingerprints are recomputed on load, never trusted from disk;
//!   symbols are re-interned by name.
//! * **Snapshot cadence.** After [`cache::persist::PersistConfig::snapshot_every`]
//!   appends, every live record is compacted into a fresh snapshot
//!   (written to a temp file, atomically renamed) and the log is reset to
//!   its header. A crash between the two steps at worst duplicates
//!   records across the files, which the confirm path dedups.
//! * **Recovery.** Startup loads the snapshot, replays the log tail, and
//!   **truncates at the first invalid record** instead of failing —
//!   validation is length bounds, checksum, and a full structural decode.
//!   Each corruption event is counted in
//!   [`cache::persist::PersistStats::discarded`] (surfaced through
//!   [`Solver::stats`]). Every admitted record still re-enters through
//!   the live hit path — exact context equality plus isomorphism
//!   confirmation — so recovery can never admit an entry a fresh solver
//!   would decide differently.
//! * **Disk hits.** Each distinct context (the Σ every record repeats) is
//!   decoded once per process, at recovery or append. A hit reads its
//!   frame under the tier lock, then outside it re-checks the frame's
//!   length, context bytes and checksum, decodes the entry part only, and
//!   confirms by isomorphism; a frame altered since startup is a miss,
//!   counted in `discarded`.
//! * **What is (not) memoized across restarts.** Terminal results and the
//!   *deterministic* budget errors (`BudgetExhausted`, `QueryTooLarge`)
//!   are; transient guard aborts (deadline, cancellation) never reach
//!   disk, mirroring [`eqsql_chase::ChaseError::is_cacheable`]. Read-only
//!   mode ([`cache::persist::PersistConfig::read_only`]) serves disk hits
//!   without appending, for replicas over a shared warm store.
//!
//! ## Failure modes & backpressure
//!
//! A hostile workload — adversarial inputs, too many requests, a caller
//! that lost interest — must degrade a [`Solver`] *per request*, never
//! wedge it. The failure taxonomy splits along one line: is the error a
//! **stable fact about the input** or a **transient fact about one run**?
//!
//! * **Budget exhaustion** ([`Error::BudgetExhausted`],
//!   [`Error::QueryTooLarge`], [`Error::PlanTooLarge`]) — deterministic
//!   functions of `(Q, Σ, budget)`. They are **cached**: rediscovering
//!   that a chase diverges is as expensive as the divergence itself.
//!   [`BatchOptions::retry`] ([`RetryPolicy`]) re-runs exhausted requests
//!   with an escalated budget; the larger budget is a different cache
//!   context, so the memoized exhaustion at the smaller budget is neither
//!   consulted nor clobbered.
//! * **Deadline / cancellation** ([`Error::DeadlineExceeded`],
//!   [`Error::Cancelled`]) — properties of wall-clock and caller
//!   interest, observed by a cooperative [`RunGuard`] polled once per
//!   chase step (engine loop, nested assignment-fixing chases, instance
//!   repairs, counterexample search). They are **never cached**
//!   ([`eqsql_chase::ChaseError::is_cacheable`]): an identical retry may
//!   well succeed, and must not be answered "timed out" from memory. Set
//!   per request via [`RequestOpts::deadline_ms`] (`0` = already
//!   expired), per batch via [`BatchOptions::deadline_ms`] /
//!   [`BatchOptions::cancel`] ([`Cancel`] is a shareable token).
//! * **Shedding** ([`Error::Shed`]) — admission control at the batch
//!   boundary. [`AdmissionConfig`] bounds the number of requests a batch
//!   will queue; past capacity, [`ShedPolicy::RejectNew`] turns away
//!   arrivals and [`ShedPolicy::CancelOldest`] shed the oldest waiting
//!   request instead. Shed requests do no work and touch no cache.
//! * **Panics** ([`Error::Internal`]) — a defect in the service, not a
//!   statement about the input. Each batch request runs under
//!   `catch_unwind`; a panicking request becomes an `Internal` verdict
//!   while the rest of the batch completes, and cache shard locks recover
//!   from poisoning so an isolated panic cannot take the cache with it.
//!
//! Every transient outcome is counted in [`SolverStats`] (`shed`,
//! `retries`, `panics`) so operators can see backpressure, and
//! [`Error::is_transient`] lets callers route retryable failures. The
//! fault-injection hook [`RequestOpts::fault`] ([`FaultPlan`]) forces
//! cancellation, deadline expiry or a panic at the Nth guard poll — the
//! deterministic substrate of the robustness test suite.
//!
//! ## Observability: metrics, traces, and reading the numbers
//!
//! Chase cost is intrinsically spiky — Σ decides whether a request costs
//! three steps or its whole budget — so the ops knobs above (deadlines,
//! shedding, retry escalation) can only be tuned against *distributions*,
//! not averages. The in-tree `eqsql_obs` crate supplies the substrate;
//! this crate wires it through every layer:
//!
//! * **Off by default, and free when off.** No timestamp is taken and no
//!   probe armed unless a [`SolverBuilder::trace_sink`] is installed, the
//!   one observation switch; the disabled cost is an `Option` test per
//!   site. Instrumentation is pure accounting either
//!   way — verdicts, chase step counts and cache attribution are
//!   bit-identical with observability off and on, pinned by a randomized
//!   differential suite.
//! * **Per-request records.** Each batch request carries a span
//!   ([`eqsql_obs::TraceCtx`]) splitting its life into disjoint phases:
//!   `queue` (admission wait), `regularize` (override-context
//!   construction), `chase` (cache misses: engine time), `cache` (probes
//!   answered from memory or disk, attributed separately), `evidence`
//!   (counterexample search, *excluding* its nested chases — no
//!   microsecond is double-billed, so the phase sum is ≤ wall time). The
//!   request closes into one [`RequestRecord`], whose line
//!   ([`RequestRecord::render`]) goes to the configured sink — including
//!   for requests that die (shed, deadline, cancellation, panic), whose
//!   `terminal=` key says how. It is the line the `eqsql_net` server
//!   writes back, so the trace and the wire agree by construction.
//! * **Aggregates.** [`Solver::stats`] adds [`SolverStats::latency`]
//!   (a log-bucketed p50/p90/p99/max summary of observed batch-request
//!   latencies, µs) and [`SolverStats::phase`] (cumulative per-phase
//!   totals). [`CacheStats::shard_entries`] exposes per-shard occupancy,
//!   so fingerprint skew across the sharded cache is visible.
//! * **Reading the numbers.** A high `queue_us` with low `chase_us`
//!   means admission capacity, not chase cost, bounds latency — raise
//!   capacity or threads. `misses` with large `chase_us` and a cold
//!   `disk_hits` column means the persistent tier isn't warming —
//!   check `--cache-dir`. Hits that are mostly `disk_hits` pay
//!   deserialization: a bigger memory capacity would help. `p99 ≫ p50`
//!   with `retries > 0` usually means budget escalation, not noise.
//! * **From the binary.** `eqsql-serve --metrics` dumps solver/cache
//!   metrics at end of run, `--trace FILE` writes each request's record
//!   line, `--progress MS` prints a periodic progress line to stderr.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod canon;
pub mod error;
pub mod evidence;
pub mod record;
pub mod request;
pub mod solver;

// Re-exported so Solver callers can speak the façade's full vocabulary
// (semantics, budgets, run guards) without importing substrate crates.
pub use cache::persist::{PersistConfig, PersistFault, PersistStats};
pub use cache::{CacheConfig, CacheOutcome, CacheStats, ChaseCache};
pub use canon::{cache_key, context_fingerprint, query_fingerprint, ChaseContext};
pub use eqsql_chase::{Cancel, ChaseConfig, EngineOpts, Fault, FaultPlan, RunGuard};
pub use eqsql_obs::{HistogramSummary, TraceCtx, TraceSink, VecSink, WriteSink};
pub use eqsql_relalg::Semantics;
pub use error::Error;
pub use evidence::{
    BagContainmentCertificate, CertificateError, ContainmentCertificate, Counterexample,
    EquivalenceCertificate, ImplicationCounterexample,
};
pub use record::RequestRecord;
pub use request::{
    parse_request_file, parse_request_line, parse_request_line_bytes, request_lines, RequestFile,
    RequestParseError, MAX_LINE_BYTES,
};
pub use solver::{
    AdmissionConfig, Answer, BatchOptions, BatchReport, DecisionStats, PhaseTotals, Request,
    RequestOpts, RetryPolicy, ShedPolicy, Solver, SolverBuilder, SolverStats, Verdict,
};
