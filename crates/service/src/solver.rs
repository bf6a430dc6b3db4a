//! The [`Solver`]: one typed façade over every decision procedure.
//!
//! The paper contributes a *family* of chase-based decision procedures —
//! Σ-equivalence under three semantics (Theorems 2.2/6.1/6.2), set
//! containment, Σ-minimality (Definition 3.1), the C&B reformulation
//! family (Appendix A, §6.3), bag containment (Appendix D), dependency
//! implication and the instance chase. Historically each lived behind its
//! own free function with its own parameter list and its own error shape.
//! The Solver collapses all of that into one entry point:
//!
//! ```
//! use eqsql_cq::parse_query;
//! use eqsql_deps::parse_dependencies;
//! use eqsql_relalg::Schema;
//! use eqsql_service::{Answer, Request, RequestOpts, Solver};
//!
//! let sigma = parse_dependencies("a(X) -> b(X).").unwrap();
//! let schema = Schema::all_bags(&[("a", 1), ("b", 1)]);
//! let solver = Solver::builder(sigma, schema).build();
//!
//! let req = Request::Equivalent {
//!     q1: parse_query("q(X) :- a(X)").unwrap(),
//!     q2: parse_query("q(X) :- a(X), b(X)").unwrap(),
//!     opts: RequestOpts::default(),
//! };
//! let verdict = solver.decide(&req).unwrap();
//! assert!(matches!(verdict.answer, Answer::Equivalent { .. }));
//! // Every verdict carries machine-checkable evidence.
//! verdict.verify(&req, solver.sigma(), solver.schema()).unwrap();
//! ```
//!
//! A [`SolverBuilder`] captures everything that used to be passed
//! piecemeal — chase budgets, cache configuration and worker-thread
//! count. A [`Request`] names the decision (with optional per-request
//! semantics/budget overrides; set semantics when none is given), and the
//! answer is a [`Verdict`]: a typed [`Answer`] carrying the certificate
//! the paper's theorems say must exist (witnessing homomorphisms per
//! containment direction, the separating database on inequivalence, the
//! reformulated queries for C&B) plus per-decision chase/cache
//! statistics. Failures surface through the unified [`crate::Error`]
//! taxonomy.
//!
//! Every chase the Solver issues is routed through its shared
//! [`ChaseCache`], so streams of related requests (the C&B backchase, a
//! minimality sweep, a batch of equivalence probes over one Σ) share
//! terminal chase results automatically.

use crate::cache::{CacheConfig, CacheOutcome, ChaseCache};
use crate::canon::ChaseContext;
use crate::error::Error;
use crate::evidence::{
    BagContainmentCertificate, ContainmentCertificate, Counterexample, EquivalenceCertificate,
    ImplicationCounterexample,
};
use crate::record::RequestRecord;
use crate::request::{arity_table, check_arities, RequestParseError};
use eqsql_chase::instance::chase_database;
use eqsql_chase::{Cancel, ChaseConfig, ChaseError, EngineOpts, FaultPlan, RunGuard, SoundChased};
use eqsql_core::bag_containment::{find_non_containment_witness, onto_containment_mapping};
use eqsql_core::counterexample::separating_database_via;
use eqsql_core::{
    cnb_via, sigma_minimality_witness_via, CnbOptions, MinimalityWitness, SoundChaser,
};
use eqsql_cq::{
    canonical_representation, containment_mapping, find_isomorphism, CqQuery, Predicate, Subst,
};
use eqsql_deps::implication::{conclusion_holds, premise_query};
use eqsql_deps::satisfaction::query_satisfies_all;
use eqsql_deps::{Dependency, DependencySet};
use eqsql_obs::{Histogram, HistogramSummary, Phase, StepProbe, TraceCtx, TraceSink, PHASES};
use eqsql_relalg::{canonical_database, Database, Schema, Semantics};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Per-request overrides: semantics, chase budgets, and a wall-clock
/// deadline. A `None` semantics means set semantics, and `None` budgets
/// fall back to the Solver's [`SolverBuilder::chase_config`], so
/// `RequestOpts::default()` means "set semantics, as configured at build
/// time".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RequestOpts {
    /// Semantics override for this request.
    pub sem: Option<Semantics>,
    /// Chase step-budget override.
    pub max_steps: Option<usize>,
    /// Chase atom-budget override.
    pub max_atoms: Option<usize>,
    /// Wall-clock deadline in milliseconds, counted from the moment the
    /// decision starts (not from batch submission). Exceeding it aborts
    /// the decision with [`Error::DeadlineExceeded`] within one engine
    /// step; `0` means "already expired" (every decision fails
    /// immediately — useful for smoke-testing timeout paths). Unlike the
    /// step budget, a blown deadline is a transient outcome and is never
    /// cached.
    pub deadline_ms: Option<u64>,
    /// Deterministic fault-injection plan (test hook): forces a
    /// cancellation, deadline expiry, or panic at the Nth guard poll of
    /// this decision. See [`FaultPlan`].
    pub fault: Option<FaultPlan>,
}

impl RequestOpts {
    /// Overrides just the semantics.
    pub fn with_sem(sem: Semantics) -> RequestOpts {
        RequestOpts { sem: Some(sem), ..RequestOpts::default() }
    }

    /// Overrides just the deadline.
    pub fn with_deadline_ms(ms: u64) -> RequestOpts {
        RequestOpts { deadline_ms: Some(ms), ..RequestOpts::default() }
    }
}

/// What [`Solver::decide_all_streaming`] does with requests beyond the
/// admission queue's capacity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Requests arriving at a full queue are rejected ([`Error::Shed`]);
    /// the earliest-admitted requests run.
    RejectNew,
    /// The oldest *waiting* request is shed to admit the newcomer; the
    /// latest-arriving requests run.
    CancelOldest,
}

/// Bounded admission for [`Solver::decide_all_streaming`]: at most
/// `capacity` requests of a batch are admitted; the rest are shed per
/// `policy` at intake (in request order, before any work starts) and
/// answered with [`Error::Shed`]. Shedding is counted in
/// [`SolverStats::shed`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum requests admitted per batch.
    pub capacity: usize,
    /// What to do with the overflow.
    pub policy: ShedPolicy,
}

impl AdmissionConfig {
    /// Admission with the given capacity and the [`ShedPolicy::RejectNew`]
    /// policy.
    pub fn reject_new(capacity: usize) -> AdmissionConfig {
        AdmissionConfig { capacity, policy: ShedPolicy::RejectNew }
    }

    /// Admission with the given capacity and the
    /// [`ShedPolicy::CancelOldest`] policy.
    pub fn cancel_oldest(capacity: usize) -> AdmissionConfig {
        AdmissionConfig { capacity, policy: ShedPolicy::CancelOldest }
    }
}

/// Retry-with-escalated-budget for [`Solver::decide_all_streaming`]: a
/// request answered [`Error::BudgetExhausted`] — the one *stable* error a
/// bigger budget can cure — is re-decided with its step and atom budgets
/// multiplied by `budget_multiplier`, up to `max_attempts` total attempts.
/// The escalated run uses a distinct cache context (budgets are part of
/// the context key), so the memoized exhaustion at the smaller budget is
/// neither consulted nor clobbered. Retries are counted in
/// [`SolverStats::retries`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts allowed per request (1 = no retry).
    pub max_attempts: u32,
    /// Budget multiplier applied per retry (compounding).
    pub budget_multiplier: u32,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { max_attempts: 2, budget_multiplier: 4 }
    }
}

/// The ops envelope of a [`Solver::decide_all_streaming`] batch:
/// cancellation, a default deadline, bounded admission, and
/// budget-escalating retry. `BatchOptions::default()` is exactly
/// [`Solver::decide_all`].
#[derive(Clone, Debug, Default)]
pub struct BatchOptions {
    /// Batch-level cancellation handle: cancelling it aborts every
    /// not-yet-finished request of the batch (each within one engine step)
    /// with [`Error::Cancelled`].
    pub cancel: Option<Cancel>,
    /// Default per-request deadline (ms, counted from each decision's
    /// start); a request's own [`RequestOpts::deadline_ms`] takes
    /// precedence.
    pub deadline_ms: Option<u64>,
    /// Bounded admission with a shed policy. `None` admits everything.
    pub admission: Option<AdmissionConfig>,
    /// Retry-with-escalated-budget. `None` means one attempt per request.
    pub retry: Option<RetryPolicy>,
}

/// One decision of the paper's family. Construct with the query/dependency
/// types of the substrate crates; per-request overrides ride in
/// [`RequestOpts`].
#[derive(Clone, Debug)]
pub enum Request {
    /// `q1 ≡_{Σ,sem} q2`? (Theorems 2.2 / 6.1 / 6.2.)
    Equivalent {
        /// Left query.
        q1: CqQuery,
        /// Right query.
        q2: CqQuery,
        /// Per-request overrides.
        opts: RequestOpts,
    },
    /// `q1 ⊑_{Σ,S} q2`? Set semantics only (bag containment is open —
    /// see [`Request::BagContained`]); requesting another semantics is an
    /// [`Error::UnsupportedSemantics`].
    Contained {
        /// The (candidate) contained query.
        q1: CqQuery,
        /// The containing query.
        q2: CqQuery,
        /// Per-request overrides.
        opts: RequestOpts,
    },
    /// `q1 ⊑_{Σ,B} q2`? The sound three-valued procedure built from the
    /// paper's necessary condition (Appendix D), the multiset-onto
    /// sufficient condition and a Σ-repaired falsifier; may answer
    /// [`Answer::BagContainmentOpen`].
    BagContained {
        /// The (candidate) contained query.
        q1: CqQuery,
        /// The containing query.
        q2: CqQuery,
        /// Per-request overrides.
        opts: RequestOpts,
    },
    /// Is `q` Σ-minimal (Definition 3.1) under the effective semantics?
    Minimal {
        /// The query to test.
        q: CqQuery,
        /// Per-request overrides.
        opts: RequestOpts,
    },
    /// All Σ-minimal reformulations of `q` — C&B / Bag-C&B / Bag-Set-C&B
    /// depending on the effective semantics (Theorems 6.4, K.1).
    Reformulate {
        /// The query to reformulate.
        q: CqQuery,
        /// Per-request overrides.
        opts: RequestOpts,
    },
    /// Does Σ logically imply `dep` (on all instances)? Decided by chasing
    /// the frozen premise; semantics overrides are ignored (implication is
    /// a set-semantics notion).
    Implies {
        /// The candidate implied dependency.
        dep: Dependency,
        /// Per-request overrides (budgets only).
        opts: RequestOpts,
    },
    /// Repair a database instance into a model of Σ with the labelled-null
    /// chase. An unrepairable instance (an egd equates two distinct
    /// constants) is an [`Error::EgdFailure`].
    ChaseInstance {
        /// The instance to repair.
        db: Database,
        /// Per-request overrides (budgets only).
        opts: RequestOpts,
    },
}

impl Request {
    fn opts(&self) -> &RequestOpts {
        match self {
            Request::Equivalent { opts, .. }
            | Request::Contained { opts, .. }
            | Request::BagContained { opts, .. }
            | Request::Minimal { opts, .. }
            | Request::Reformulate { opts, .. }
            | Request::Implies { opts, .. }
            | Request::ChaseInstance { opts, .. } => opts,
        }
    }

    /// Short label for logs and the `eqsql-serve` output.
    pub fn label(&self) -> &'static str {
        match self {
            Request::Equivalent { .. } => "equivalent",
            Request::Contained { .. } => "contains",
            Request::BagContained { .. } => "bag-contains",
            Request::Minimal { .. } => "minimal",
            Request::Reformulate { .. } => "cnb",
            Request::Implies { .. } => "implies",
            Request::ChaseInstance { .. } => "chase-instance",
        }
    }
}

/// The typed answer of a decision, with its evidence.
#[derive(Clone, Debug)]
pub enum Answer {
    /// The queries are Σ-equivalent; the certificate replays the
    /// witnessing homomorphisms (or bijection) between the terminals.
    Equivalent {
        /// The equivalence certificate.
        certificate: EquivalenceCertificate,
    },
    /// The queries are not Σ-equivalent. Where the (sound, incomplete)
    /// search finds one, a separating database `D ⊨ Σ` rides along.
    NotEquivalent {
        /// A verified separating instance, when one was found.
        counterexample: Option<Counterexample>,
    },
    /// `q1 ⊑_{Σ,S} q2`, certified by a containment mapping.
    Contained {
        /// The containment certificate.
        certificate: ContainmentCertificate,
    },
    /// `q1 ⋢_{Σ,S} q2`; the canonical database of `(q1)_{Σ,S}` witnesses
    /// the gap when it verifies.
    NotContained {
        /// A verified witness of the containment gap, when one was found.
        counterexample: Option<Counterexample>,
    },
    /// `q1 ⊑_{Σ,B} q2`, certified by a multiset-onto containment mapping
    /// (or trivially by an unsatisfiable left side).
    BagContained {
        /// The bag-containment certificate.
        certificate: BagContainmentCertificate,
    },
    /// `q1 ⋢_{Σ,B} q2`, witnessed by a Σ-satisfying database with a
    /// multiplicity gap.
    BagNotContained {
        /// The verified multiplicity-gap witness.
        counterexample: Counterexample,
    },
    /// Neither direction of the bag-containment question could be
    /// established — the general problem is open, and this procedure is
    /// deliberately three-valued rather than falsely confident.
    BagContainmentOpen,
    /// The query is Σ-minimal (no witness of Definition 3.1 exists).
    Minimal,
    /// The query is not Σ-minimal: the witness carries the identified
    /// query `S1` and the reduced `S2 ≡_{Σ,sem} q`.
    NotMinimal {
        /// The Definition 3.1 witness.
        witness: MinimalityWitness,
    },
    /// The C&B result: universal plan and all Σ-minimal reformulations.
    Reformulated {
        /// The universal plan `(Q)_{Σ,sem}`.
        universal_plan: CqQuery,
        /// All Σ-minimal reformulations (pairwise non-isomorphic).
        reformulations: Vec<CqQuery>,
        /// Candidate subqueries the backchase tested.
        candidates_tested: usize,
    },
    /// Σ implies the dependency.
    Implied {
        /// The chased premise query the conclusion was found in
        /// (meaningless when `vacuous`).
        chased_premise: CqQuery,
        /// The egd renaming the chase accumulated (evidence input for
        /// replaying the conclusion check).
        renaming: Subst,
        /// The premise was unsatisfiable under Σ: implication holds
        /// vacuously.
        vacuous: bool,
    },
    /// Σ does not imply the dependency: the chased premise is a
    /// counterexample template (its canonical database satisfies Σ but
    /// not the dependency).
    NotImplied {
        /// The chased premise query.
        chased_premise: CqQuery,
        /// The egd renaming the chase accumulated.
        renaming: Subst,
        /// The materialized canonical-database witness (`db ⊨ Σ`,
        /// `db ⊭ dep`), when counterexample search is enabled and the
        /// witness replays. See [`ImplicationCounterexample`].
        counterexample: Option<ImplicationCounterexample>,
    },
    /// The repaired instance (a model of Σ).
    ChasedInstance {
        /// The repaired database.
        db: Database,
        /// Chase steps the repair took.
        steps: usize,
    },
}

impl Answer {
    /// Short label for logs and mismatch diagnostics.
    pub fn label(&self) -> &'static str {
        match self {
            Answer::Equivalent { .. } => "equivalent",
            Answer::NotEquivalent { .. } => "not-equivalent",
            Answer::Contained { .. } => "contained",
            Answer::NotContained { .. } => "not-contained",
            Answer::BagContained { .. } => "bag-contained",
            Answer::BagNotContained { .. } => "bag-not-contained",
            Answer::BagContainmentOpen => "bag-containment-open",
            Answer::Minimal => "minimal",
            Answer::NotMinimal { .. } => "not-minimal",
            Answer::Reformulated { .. } => "reformulated",
            Answer::Implied { .. } => "implied",
            Answer::NotImplied { .. } => "not-implied",
            Answer::ChasedInstance { .. } => "chased-instance",
        }
    }
}

/// Per-decision resource accounting.
#[derive(Clone, Copy, Debug, Default)]
pub struct DecisionStats {
    /// Chase steps executed (or replayed from cache) for this decision.
    pub chase_steps: u64,
    /// Chase-cache hits attributable to this decision.
    pub cache_hits: u64,
    /// Chase-cache misses attributable to this decision.
    pub cache_misses: u64,
    /// Wall-clock time.
    pub wall: Duration,
}

/// A decision with its evidence and accounting.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// The typed answer.
    pub answer: Answer,
    /// Resource accounting for this decision.
    pub stats: DecisionStats,
}

impl Verdict {
    /// `true` for the positive answers (`Equivalent`, `Contained`,
    /// `BagContained`, `Minimal`, `Implied`).
    pub fn is_positive(&self) -> bool {
        matches!(
            self.answer,
            Answer::Equivalent { .. }
                | Answer::Contained { .. }
                | Answer::BagContained { .. }
                | Answer::Minimal
                | Answer::Implied { .. }
        )
    }

    /// Replays every piece of evidence this verdict carries against the
    /// request it answered. Every `(answer, request)` shape is matched
    /// explicitly: a verdict paired with the wrong request kind is an
    /// error, never a silent pass. Answers whose content is the *absence*
    /// of a witness (e.g. [`Answer::Minimal`]) or whose replay would
    /// require re-running a chase (the `Reformulated`/`ChasedInstance`
    /// terminals — the randomized differential suite covers those against
    /// the legacy oracles) verify structurally only; `NotImplied` replays
    /// its canonical-database counterexample when one was attached.
    ///
    /// A non-vacuous `Implied` replays without a chase: the chased premise
    /// must satisfy Σ and must satisfy the dependency's conclusion under
    /// the recorded renaming. What stays trusted is that `chased_premise`
    /// really is the chase of the dependency's premise, and every vacuous
    /// `Implied` (the premise's chase failed, which only a chase can
    /// re-establish).
    pub fn verify(
        &self,
        request: &Request,
        sigma: &DependencySet,
        schema: &Schema,
    ) -> Result<(), crate::evidence::CertificateError> {
        let mismatch = || {
            Err(crate::evidence::CertificateError {
                reason: format!(
                    "answer `{}` does not belong to a `{}` request",
                    self.answer.label(),
                    request.label()
                ),
            })
        };
        match (&self.answer, request) {
            (Answer::Equivalent { certificate }, Request::Equivalent { .. }) => {
                certificate.verify()
            }
            (Answer::NotEquivalent { counterexample }, Request::Equivalent { q1, q2, .. }) => {
                match counterexample {
                    Some(cex) => cex.verify(q1, q2, sigma, schema),
                    None => Ok(()),
                }
            }
            (Answer::Contained { certificate }, Request::Contained { q2, .. }) => {
                certificate.verify(q2)
            }
            (Answer::NotContained { counterexample }, Request::Contained { q1, q2, .. }) => {
                match counterexample {
                    Some(cex) => cex.verify_set_gap(q1, q2, sigma),
                    None => Ok(()),
                }
            }
            (Answer::BagContained { certificate }, Request::BagContained { .. }) => {
                certificate.verify()
            }
            (Answer::BagNotContained { counterexample }, Request::BagContained { q1, q2, .. }) => {
                counterexample.verify_bag_gap(q1, q2, sigma, schema)
            }
            (Answer::BagContainmentOpen, Request::BagContained { .. }) => Ok(()),
            (Answer::Minimal, Request::Minimal { .. }) => Ok(()),
            (Answer::NotMinimal { witness }, Request::Minimal { q, .. }) => {
                // Structural replay of the Definition 3.1 shape: S1 is q
                // with variables identified (same body length, same head
                // width) and S2 drops at least one atom of S1, keeping a
                // sub-multiset of its body. The Σ-equivalence S2 ≡ q
                // itself needs a chase, so it is pinned by the randomized
                // differential suite rather than replayed here.
                if witness.identified.body.len() != q.body.len()
                    || witness.identified.head.len() != q.head.len()
                {
                    return Err(crate::evidence::CertificateError {
                        reason: "minimality witness S1 is not an identification of q".into(),
                    });
                }
                let mut remaining: Vec<&eqsql_cq::Atom> = witness.identified.body.iter().collect();
                let covered = witness.reduced.body.iter().all(|a| {
                    remaining
                        .iter()
                        .position(|b| *b == a)
                        .map(|i| remaining.swap_remove(i))
                        .is_some()
                });
                if !covered || witness.reduced.body.len() >= witness.identified.body.len() {
                    return Err(crate::evidence::CertificateError {
                        reason: "minimality witness S2 does not drop atoms of S1".into(),
                    });
                }
                Ok(())
            }
            (Answer::NotImplied { counterexample, .. }, Request::Implies { dep, .. }) => {
                match counterexample {
                    Some(cex) => cex.verify(dep, sigma),
                    None => Ok(()),
                }
            }
            (
                Answer::Implied { chased_premise, renaming, vacuous },
                Request::Implies { dep, .. },
            ) => {
                if *vacuous {
                    Ok(())
                } else if !query_satisfies_all(chased_premise, sigma) {
                    Err(crate::evidence::CertificateError {
                        reason: "implication evidence: the chased premise violates Σ".into(),
                    })
                } else if !conclusion_holds(dep, chased_premise, renaming) {
                    Err(crate::evidence::CertificateError {
                        reason: "implication evidence: the conclusion does not hold in the \
                                 chased premise"
                            .into(),
                    })
                } else {
                    Ok(())
                }
            }
            (Answer::Reformulated { .. }, Request::Reformulate { .. })
            | (Answer::ChasedInstance { .. }, Request::ChaseInstance { .. }) => Ok(()),
            _ => mismatch(),
        }
    }
}

/// A request's counters, summed over its attempts: what its
/// [`RequestRecord`] reports besides the verdict and the clock.
#[derive(Default)]
struct Tally {
    stats: DecisionStats,
    mem_hits: u64,
    disk_hits: u64,
    attempts: u32,
    engine_steps: u64,
    scans: u64,
}

/// A batch of decisions: verdicts in request order plus aggregate
/// accounting.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// `verdicts[i]` answers `requests[i]`.
    pub verdicts: Vec<Result<Verdict, Error>>,
    /// Aggregate accounting across the batch (hits/misses/steps are summed
    /// over all requests and all their attempts, including ones that ended
    /// in an error).
    pub stats: DecisionStats,
    /// Worker threads used.
    pub threads: usize,
    /// Requests shed at admission (their verdicts are [`Error::Shed`]).
    pub shed: usize,
}

/// Cumulative per-phase wall time across every observed batch request,
/// in microseconds. All zero unless the solver observes (a
/// [`SolverBuilder::trace_sink`] is installed) — an unobserved solver
/// takes no per-phase timestamps at all.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Admission-queue wait (batch intake → worker pickup).
    pub queue_us: u64,
    /// Σ-regularization / override-context construction.
    pub regularize_us: u64,
    /// Chase calls answered by running the engine (cache misses).
    pub chase_us: u64,
    /// Chase calls answered from the cache (memory or disk tier).
    pub cache_us: u64,
    /// Evidence construction, excluding the nested chases it issues.
    pub evidence_us: u64,
}

/// Point-in-time Solver counters: the cache snapshot plus request/batch
/// totals, as one struct so monitoring reads are coherent.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Requests decided (success or error) since construction.
    pub requests: u64,
    /// `decide_all` batches run since construction.
    pub batches: u64,
    /// Requests shed at admission ([`AdmissionConfig`]) since construction.
    pub shed: u64,
    /// Budget-escalating retries ([`RetryPolicy`]) since construction.
    pub retries: u64,
    /// Requests that panicked and were isolated to an [`Error::Internal`]
    /// verdict since construction.
    pub panics: u64,
    /// Per-request batch latency summary (µs), populated only while the
    /// solver observes — see [`PhaseTotals`].
    pub latency: HistogramSummary,
    /// Cumulative per-phase timings across observed batch requests.
    pub phase: PhaseTotals,
    /// The shared chase cache's counters.
    pub cache: crate::cache::CacheStats,
}

/// Builder for [`Solver`]: captures everything the decision family used to
/// take piecemeal. All knobs default sensibly — `Solver::builder(σ, schema)
/// .build()` is a working solver.
pub struct SolverBuilder {
    sigma: DependencySet,
    schema: Schema,
    config: ChaseConfig,
    cache: Option<Arc<ChaseCache>>,
    cache_config: CacheConfig,
    threads: usize,
    counterexamples: bool,
    trace_sink: Option<Arc<dyn TraceSink>>,
}

impl SolverBuilder {
    /// Starts a builder over Σ and a schema. Defaults: default chase
    /// budgets, a fresh default-sized cache, one worker thread,
    /// counterexample search enabled.
    pub fn new(sigma: DependencySet, schema: Schema) -> SolverBuilder {
        SolverBuilder {
            sigma,
            schema,
            config: ChaseConfig::default(),
            cache: None,
            cache_config: CacheConfig::default(),
            threads: 1,
            counterexamples: true,
            trace_sink: None,
        }
    }

    /// Default chase budgets.
    pub fn chase_config(mut self, config: ChaseConfig) -> SolverBuilder {
        self.config = config;
        self
    }

    /// Adopts an existing (possibly warm, possibly shared) chase cache.
    pub fn cache(mut self, cache: Arc<ChaseCache>) -> SolverBuilder {
        self.cache = Some(cache);
        self
    }

    /// Sizing for the fresh cache built when none is adopted.
    pub fn cache_config(mut self, config: CacheConfig) -> SolverBuilder {
        self.cache_config = config;
        self
    }

    /// Worker threads for [`Solver::decide_all`] (clamped to ≥ 1).
    pub fn threads(mut self, threads: usize) -> SolverBuilder {
        self.threads = threads.max(1);
        self
    }

    /// Whether negative verdicts search for a separating database.
    /// Disable for throughput-sensitive batches that only need the
    /// boolean.
    pub fn counterexamples(mut self, on: bool) -> SolverBuilder {
        self.counterexamples = on;
        self
    }

    /// Installs a per-request trace sink: every batch request (including
    /// shed and dead ones) emits its [`RequestRecord::render`] line. The
    /// sink is the solver's one observation switch: with it, requests
    /// take per-phase timestamps and arm engine probes, and
    /// [`SolverStats::latency`] and [`SolverStats::phase`] fill; without
    /// it, none of that runs. To observe without keeping the lines, install
    /// `WriteSink::new(std::io::sink())`.
    pub fn trace_sink(mut self, sink: Arc<dyn TraceSink>) -> SolverBuilder {
        self.trace_sink = Some(sink);
        self
    }

    /// Builds the solver: Σ is regularized once, context keys are
    /// precomputed per semantics, the schema's and Σ's relation arities
    /// are tabled for request checks, the cache is created if not adopted.
    pub fn build(self) -> Solver {
        let cache = self.cache.unwrap_or_else(|| Arc::new(ChaseCache::new(self.cache_config)));
        let (sigma_reg, reg_text) = cache.regularized_with_text(&self.sigma);
        let ctx = [Semantics::Set, Semantics::Bag, Semantics::BagSet].map(|sem| {
            ChaseContext::with_text(sem, Arc::clone(&reg_text), &self.schema, &self.config)
        });
        let arities = arity_table(&self.schema, &self.sigma);
        Solver {
            sigma: self.sigma,
            schema: self.schema,
            config: self.config,
            cache,
            threads: self.threads,
            counterexamples: self.counterexamples,
            sigma_reg,
            reg_text,
            ctx,
            requests: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            arities,
            trace_sink: self.trace_sink,
            latency: Histogram::new(),
            phase_totals: Default::default(),
        }
    }
}

/// The façade: every decision procedure of the paper behind
/// [`Solver::decide`]. See the module docs for an example.
pub struct Solver {
    sigma: DependencySet,
    schema: Schema,
    config: ChaseConfig,
    cache: Arc<ChaseCache>,
    threads: usize,
    counterexamples: bool,
    /// Σ regularized once at construction (shared with the cache's memo).
    sigma_reg: Arc<DependencySet>,
    /// The regularized Σ rendered once, for on-demand context keys when a
    /// request overrides the budgets.
    reg_text: Arc<str>,
    /// Context keys at the default budgets, indexed Set/Bag/BagSet.
    ctx: [ChaseContext; 3],
    requests: AtomicU64,
    batches: AtomicU64,
    shed: AtomicU64,
    retries: AtomicU64,
    panics: AtomicU64,
    /// Every relation's arity, from the schema and Σ; a conflict between
    /// the two is the parse error every request gets.
    arities: Result<BTreeMap<Predicate, usize>, RequestParseError>,
    /// Event sink for per-request traces ([`SolverBuilder::trace_sink`]).
    trace_sink: Option<Arc<dyn TraceSink>>,
    /// Per-request batch latency (µs), recorded only while observing.
    latency: Histogram,
    /// Cumulative per-phase µs, indexed in [`PHASES`] order.
    phase_totals: [AtomicU64; 5],
}

/// The per-attempt execution environment threaded from the batch layer
/// into one decision: the batch cancellation handle, the batch-default
/// deadline, and the retry loop's budget scale.
struct RunEnv<'a> {
    cancel: Option<&'a Cancel>,
    deadline_ms: Option<u64>,
    budget_scale: u32,
    /// This request's trace span, when the solver is observing. `None`
    /// keeps the whole decision on the timestamp-free fast path.
    trace: Option<&'a TraceCtx>,
}

impl Default for RunEnv<'_> {
    fn default() -> Self {
        RunEnv { cancel: None, deadline_ms: None, budget_scale: 1, trace: None }
    }
}

/// Best-effort extraction of a panic payload's message (the `&str` and
/// `String` payloads `panic!` produces cover practically everything).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with a non-string payload".to_string()
    }
}

fn sem_index(sem: Semantics) -> usize {
    match sem {
        Semantics::Set => 0,
        Semantics::Bag => 1,
        Semantics::BagSet => 2,
    }
}

/// The Solver's [`SoundChaser`]: routes every chase through the shared
/// cache (precomputed context keys on the default-budget path, on-demand
/// keys for overrides) and counts memory hits, disk hits, misses and steps
/// for per-attempt attribution. The `sigma` parameter of the trait is
/// ignored — the Solver always chases against its own (pre-regularized) Σ.
struct SolverChaser<'a> {
    solver: &'a Solver,
    config: ChaseConfig,
    /// This decision's [`RunGuard`] and step probe — what every chase of
    /// the decision runs under.
    engine: EngineOpts,
    /// Context keys for an overridden budget, built at most once per
    /// semantics per decision (the budget is fixed for the whole
    /// decision): a C&B backchase or minimality sweep with overrides
    /// issues hundreds of chases, and each context build re-hashes the
    /// rendered Σ.
    override_ctx: [OnceLock<ChaseContext>; 3],
    mem_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    steps: AtomicU64,
    /// The decision's trace span, when observing. `None` skips every
    /// timestamp on the chase path.
    trace: Option<&'a TraceCtx>,
}

impl SoundChaser for SolverChaser<'_> {
    fn sound_chase(
        &self,
        sem: Semantics,
        q: &CqQuery,
        _sigma: &DependencySet,
        schema: &Schema,
        config: &ChaseConfig,
    ) -> Result<SoundChased, ChaseError> {
        // A dead run must not keep streaming cache hits: check the guard
        // before touching the cache, so even an all-hit decision aborts at
        // its next chase boundary.
        self.engine.guard.check(self.steps.load(Ordering::Relaxed) as usize)?;
        let s = self.solver;
        let default_budget =
            config.max_steps == s.config.max_steps && config.max_atoms == s.config.max_atoms;
        let ctx = if default_budget {
            &s.ctx[sem_index(sem)]
        } else {
            let build = || ChaseContext::with_text(sem, Arc::clone(&s.reg_text), schema, config);
            self.override_ctx[sem_index(sem)].get_or_init(|| match self.trace {
                Some(t) => t.time(Phase::Regularize, build),
                None => build(),
            })
        };
        let chase = || {
            s.cache.chase_keyed_attributed(ctx, &s.sigma_reg, sem, q, schema, config, &self.engine)
        };
        let (result, outcome) = match self.trace {
            None => chase(),
            Some(t) => {
                // A call answered from the cache is Cache-phase time; a
                // miss is dominated by the engine and is Chase-phase time
                // (the failed probe and the store ride along — they are
                // noise next to a chase).
                let started = Instant::now();
                let (result, outcome) = chase();
                let us = started.elapsed().as_micros() as u64;
                t.add_us(if outcome.is_hit() { Phase::Cache } else { Phase::Chase }, us);
                (result, outcome)
            }
        };
        match outcome {
            CacheOutcome::MemoryHit => &self.mem_hits,
            CacheOutcome::DiskHit => &self.disk_hits,
            CacheOutcome::Miss => &self.misses,
        }
        .fetch_add(1, Ordering::Relaxed);
        if let Ok(r) = &result {
            self.steps.fetch_add(r.steps as u64, Ordering::Relaxed);
        }
        result
    }

    fn run_guard(&self) -> RunGuard {
        self.engine.guard.clone()
    }
}

impl Solver {
    /// Starts a [`SolverBuilder`] over Σ and a schema.
    pub fn builder(sigma: DependencySet, schema: Schema) -> SolverBuilder {
        SolverBuilder::new(sigma, schema)
    }

    /// The solver's Σ.
    pub fn sigma(&self) -> &DependencySet {
        &self.sigma
    }

    /// The solver's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The default chase budgets.
    pub fn chase_config(&self) -> &ChaseConfig {
        &self.config
    }

    /// The shared chase-cache handle (e.g. to hand to another Solver).
    pub fn cache(&self) -> &Arc<ChaseCache> {
        &self.cache
    }

    /// Worker threads deciding at once: per [`Solver::decide_all`] batch,
    /// or in a network server's decision pool.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// One coherent counter snapshot: cache hit/miss/eviction plus the
    /// solver's request/batch totals.
    pub fn stats(&self) -> SolverStats {
        let pt: Vec<u64> = self.phase_totals.iter().map(|p| p.load(Ordering::Relaxed)).collect();
        SolverStats {
            requests: self.requests.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            latency: self.latency.summary(),
            phase: PhaseTotals {
                queue_us: pt[0],
                regularize_us: pt[1],
                chase_us: pt[2],
                cache_us: pt[3],
                evidence_us: pt[4],
            },
            cache: self.cache.stats(),
        }
    }

    /// Is this solver observing batch requests? True when a
    /// [`SolverBuilder::trace_sink`] is installed. When false, batch
    /// decisions take no timestamps beyond the pre-existing wall clock and
    /// arm no engine probe.
    fn observing(&self) -> bool {
        self.trace_sink.is_some()
    }

    /// The span of a request that arrived at `arrived`, while observing:
    /// its queue phase runs from the arrival to now.
    fn span(&self, arrived: Instant) -> Option<TraceCtx> {
        self.observing().then(|| {
            let span = TraceCtx::new();
            span.add_us(Phase::Queue, arrived.elapsed().as_micros() as u64);
            span
        })
    }

    /// Closes request `id`'s record: reads the clock once and, for an
    /// observed request, feeds the latency histogram, the phase totals and
    /// the trace sink.
    fn close(
        &self,
        id: u64,
        request: &Request,
        verdict: Result<Verdict, Error>,
        tally: Tally,
        arrived: Instant,
        span: Option<TraceCtx>,
    ) -> RequestRecord {
        let record = RequestRecord {
            id,
            verb: request.label(),
            verdict,
            stats: tally.stats,
            mem_hits: tally.mem_hits,
            disk_hits: tally.disk_hits,
            attempts: tally.attempts,
            engine_steps: tally.engine_steps,
            scans: tally.scans,
            wall_us: arrived.elapsed().as_micros() as u64,
            phase_us: span.map(|span| PHASES.map(|p| span.phase_us(p))),
        };
        if let Some(phase_us) = record.phase_us {
            self.latency.record(record.wall_us);
            for (total, us) in self.phase_totals.iter().zip(phase_us) {
                total.fetch_add(us, Ordering::Relaxed);
            }
            if let Some(sink) = &self.trace_sink {
                sink.emit(&record.render());
            }
        }
        record
    }

    fn effective_config(&self, opts: &RequestOpts) -> ChaseConfig {
        ChaseConfig {
            max_steps: opts.max_steps.unwrap_or(self.config.max_steps),
            max_atoms: opts.max_atoms.unwrap_or(self.config.max_atoms),
        }
    }

    /// A request that names no semantics is decided under set semantics.
    fn effective_sem(&self, opts: &RequestOpts) -> Semantics {
        opts.sem.unwrap_or(Semantics::Set)
    }

    /// Decides one request. See [`Request`] for the family and [`Answer`]
    /// for the evidence each verdict carries. The request's own
    /// [`RequestOpts::deadline_ms`] applies; for batch-level cancellation,
    /// admission and retry, use [`Solver::decide_all_streaming`].
    pub fn decide(&self, request: &Request) -> Result<Verdict, Error> {
        self.decide_counted(request, &RunEnv::default(), &mut Tally::default())
    }

    /// [`Solver::decide_all_streaming`] under default [`BatchOptions`] and
    /// without a record callback: no cancellation handle, no batch
    /// deadline, admit everything, one attempt per request.
    pub fn decide_all(&self, requests: &[Request]) -> BatchReport {
        self.decide_all_streaming(requests, &BatchOptions::default(), &|_| {})
    }

    /// Decides every request, pulling work from a shared counter across
    /// the configured worker threads, under the ops envelope of
    /// [`BatchOptions`]. Verdicts come back in request order; each depends
    /// only on its own request (the cache changes *which* computation
    /// produced a terminal, never the terminal itself), so the output is
    /// independent of scheduling.
    ///
    /// Robustness semantics:
    ///
    /// * **admission** — at most [`AdmissionConfig::capacity`] requests
    ///   are admitted, decided at intake in request order; the overflow
    ///   is shed per policy with [`Error::Shed`] verdicts, before any
    ///   work starts;
    /// * **panic isolation** — a request that panics yields
    ///   [`Error::Internal`] and the batch keeps going;
    /// * **retry** — [`Error::BudgetExhausted`] verdicts are re-decided
    ///   under [`RetryPolicy`]-escalated budgets;
    /// * **cancellation / deadline** — [`BatchOptions::cancel`] and
    ///   [`BatchOptions::deadline_ms`] guard every admitted request.
    ///
    /// `on_complete` receives each request's [`RequestRecord`] from
    /// whichever worker thread finished the request (or synchronously at
    /// intake for shed requests), as soon as it closes — not at batch end,
    /// so a caller can report verdicts while the rest of the batch is
    /// still deciding; pass `&|_| {}` to wait for the [`BatchReport`]
    /// alone. The callback must be `Sync` (workers call it concurrently)
    /// and should be quick: it runs on the worker's time. A record's `id`
    /// is the request's index in `requests`.
    pub fn decide_all_streaming(
        &self,
        requests: &[Request],
        opts: &BatchOptions,
        on_complete: &(dyn Fn(&RequestRecord) + Sync),
    ) -> BatchReport {
        let start = Instant::now();
        self.batches.fetch_add(1, Ordering::Relaxed);
        let n = requests.len();
        let slots: Vec<OnceLock<RequestRecord>> = (0..n).map(|_| OnceLock::new()).collect();
        // Admission: a bounded queue filled in request order. RejectNew
        // sheds each arrival past capacity; CancelOldest sheds the oldest
        // *waiting* request to admit the newcomer. Intake is synchronous
        // and deterministic — shedding depends only on the request order
        // and the policy, never on worker scheduling.
        let mut admitted: Vec<usize> = Vec::with_capacity(n);
        let mut shed = 0usize;
        match opts.admission {
            None => admitted.extend(0..n),
            Some(adm) => {
                for i in 0..n {
                    if admitted.len() < adm.capacity {
                        admitted.push(i);
                        continue;
                    }
                    let victim = match adm.policy {
                        ShedPolicy::RejectNew => i,
                        ShedPolicy::CancelOldest => {
                            let oldest = admitted.remove(0);
                            admitted.push(i);
                            oldest
                        }
                    };
                    shed += 1;
                    let record =
                        self.shed_request(&requests[victim], adm.capacity, start, victim as u64);
                    on_complete(&record);
                    let _ = slots[victim].set(record);
                }
            }
        }
        let workers = self.threads.min(admitted.len()).max(1);
        let next = AtomicUsize::new(0);
        let run = |i: usize| {
            let record = self.decide_request(&requests[i], opts, start, i as u64);
            on_complete(&record);
            record
        };
        if workers == 1 {
            for &i in &admitted {
                let _ = slots[i].set(run(i));
            }
        } else {
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&i) = admitted.get(k) else { break };
                        let _ = slots[i].set(run(i));
                    });
                }
            });
        }
        let mut stats = DecisionStats::default();
        let mut verdicts = Vec::with_capacity(n);
        for slot in slots {
            // Every slot is set above (shed at intake, decided by a
            // worker, or an isolated panic verdict); an empty one would be
            // a scheduling defect, reported as such rather than panicking
            // the batch.
            let (verdict, d) =
                slot.into_inner().map(|r| (r.verdict, r.stats)).unwrap_or_else(|| {
                    (
                        Err(Error::internal("request slot was never decided")),
                        DecisionStats::default(),
                    )
                });
            stats.chase_steps += d.chase_steps;
            stats.cache_hits += d.cache_hits;
            stats.cache_misses += d.cache_misses;
            verdicts.push(verdict);
        }
        stats.wall = start.elapsed();
        BatchReport { verdicts, stats, threads: workers, shed }
    }

    /// Decides one admitted request that arrived at `arrived`, under the
    /// ops envelope of `opts`: its cancellation token, default deadline
    /// and retry policy, with panic isolation. `opts.admission` is not
    /// consulted — admitting is the caller's step, and a request it turns
    /// away goes to [`Solver::shed_request`] instead. While the solver is
    /// observing, the request's queue phase runs from `arrived` to this
    /// call. The record carries `id`. This is the per-request body of
    /// [`Solver::decide_all_streaming`], and the step a network server's
    /// decision pool runs for each request read off a socket.
    pub fn decide_request(
        &self,
        request: &Request,
        opts: &BatchOptions,
        arrived: Instant,
        id: u64,
    ) -> RequestRecord {
        let span = self.span(arrived);
        let mut tally = Tally::default();
        let verdict = self.decide_resilient(request, opts, span.as_ref(), &mut tally);
        self.close(id, request, verdict, tally, arrived, span)
    }

    /// Answers a request that admission turned away, without deciding it:
    /// an [`Error::Shed`] verdict naming `capacity`, counted in
    /// [`SolverStats::shed`], with no attempt. While observing, its record
    /// still reaches the trace sink, and its whole life was queue wait.
    pub fn shed_request(
        &self,
        request: &Request,
        capacity: usize,
        arrived: Instant,
        id: u64,
    ) -> RequestRecord {
        self.shed.fetch_add(1, Ordering::Relaxed);
        let span = self.span(arrived);
        let verdict = Err(Error::Shed { capacity });
        self.close(id, request, verdict, Tally::default(), arrived, span)
    }

    /// One worker-loop iteration: panic isolation around the decision,
    /// plus the retry-with-escalated-budget loop. Every attempt adds its
    /// counts to `tally`.
    fn decide_resilient(
        &self,
        request: &Request,
        opts: &BatchOptions,
        trace: Option<&TraceCtx>,
        tally: &mut Tally,
    ) -> Result<Verdict, Error> {
        let retry = opts.retry.unwrap_or(RetryPolicy { max_attempts: 1, budget_multiplier: 1 });
        let mut scale: u32 = 1;
        loop {
            let env = RunEnv {
                cancel: opts.cancel.as_ref(),
                deadline_ms: opts.deadline_ms,
                budget_scale: scale,
                trace,
            };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.decide_counted(request, &env, tally)
            }));
            match outcome {
                Err(payload) => {
                    self.panics.fetch_add(1, Ordering::Relaxed);
                    return Err(Error::Internal { message: panic_message(payload.as_ref()) });
                }
                Ok(Err(Error::BudgetExhausted { .. }))
                    if tally.attempts < retry.max_attempts.max(1) =>
                {
                    scale = scale.saturating_mul(retry.budget_multiplier.max(1));
                    self.retries.fetch_add(1, Ordering::Relaxed);
                }
                Ok(verdict) => return verdict,
            }
        }
    }

    /// [`Solver::decide`] that adds the attempt's accounting to `tally`,
    /// even when the decision errored (errors still spend chases). An `Ok`
    /// verdict carries the tally's stats: those of every attempt so far.
    fn decide_counted(
        &self,
        request: &Request,
        env: &RunEnv<'_>,
        tally: &mut Tally,
    ) -> Result<Verdict, Error> {
        let start = Instant::now();
        tally.attempts += 1;
        self.requests.fetch_add(1, Ordering::Relaxed);
        let opts = request.opts();
        let mut config = self.effective_config(opts);
        if env.budget_scale > 1 {
            config.max_steps = config.max_steps.saturating_mul(env.budget_scale as usize);
            config.max_atoms = config.max_atoms.saturating_mul(env.budget_scale as usize);
        }
        // The guard: the request's own deadline wins over the batch
        // default; the batch cancellation handle and the request's fault
        // plan ride along. All `None` collapses to the unguarded guard —
        // zero per-step cost, step-identical to the pre-guard engine.
        let guard =
            RunGuard::new(opts.deadline_ms.or(env.deadline_ms), env.cancel.cloned(), opts.fault);
        // Arm a work probe only when tracing: the disarmed default is one
        // `Option` test per engine callback and the armed probe is pure
        // accounting, so the step sequence is identical either way.
        let probe = env.trace.map(|_| StepProbe::armed());
        let chaser = SolverChaser {
            solver: self,
            config,
            engine: EngineOpts { guard: guard.clone(), probe: probe.clone().unwrap_or_default() },
            override_ctx: [OnceLock::new(), OnceLock::new(), OnceLock::new()],
            mem_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            steps: AtomicU64::new(0),
            trace: env.trace,
        };
        let answer = self.answer(request, &chaser).and_then(|answer| {
            // A verdict that completed after the caller's interest lapsed
            // (deadline passed or cancellation arrived during the final,
            // non-chasing phase of the decision) is discarded: the caller
            // asked for an answer *by* the deadline, and a transient
            // error is the honest outcome.
            guard.check(chaser.steps.load(Ordering::Relaxed) as usize)?;
            Ok(answer)
        });
        let (mem_hits, disk_hits) =
            (chaser.mem_hits.load(Ordering::Relaxed), chaser.disk_hits.load(Ordering::Relaxed));
        tally.stats.chase_steps += chaser.steps.load(Ordering::Relaxed);
        tally.stats.cache_hits += mem_hits + disk_hits;
        tally.stats.cache_misses += chaser.misses.load(Ordering::Relaxed);
        tally.stats.wall += start.elapsed();
        tally.mem_hits += mem_hits;
        tally.disk_hits += disk_hits;
        if let Some(p) = &probe {
            tally.engine_steps += p.steps();
            tally.scans += p.scans();
        }
        answer.map(|answer| Verdict { answer, stats: tally.stats })
    }

    fn answer(&self, request: &Request, chaser: &SolverChaser<'_>) -> Result<Answer, Error> {
        // A relation at the wrong arity would trip an arity assertion deep
        // inside a chase; answer it as the wire parser answers such a line.
        check_arities(request, self.arities.as_ref().map_err(Clone::clone)?)?;
        let config = chaser.config;
        match request {
            Request::Equivalent { q1, q2, opts } => {
                self.equivalence(chaser, self.effective_sem(opts), q1, q2, &config)
            }
            Request::Contained { q1, q2, opts } => {
                // The request variant fixes the semantics; only an
                // *explicit* conflicting override errors.
                if let Some(sem) = opts.sem.filter(|&s| s != Semantics::Set) {
                    return Err(Error::UnsupportedSemantics { operation: "set-containment", sem });
                }
                self.containment(chaser, q1, q2, &config)
            }
            Request::BagContained { q1, q2, opts } => {
                if let Some(sem) = opts.sem.filter(|&s| s != Semantics::Bag) {
                    return Err(Error::UnsupportedSemantics { operation: "bag-containment", sem });
                }
                self.bag_containment(chaser, q1, q2, &config)
            }
            Request::Minimal { q, opts } => {
                let sem = self.effective_sem(opts);
                let witness = sigma_minimality_witness_via(
                    chaser,
                    q,
                    &self.sigma,
                    &self.schema,
                    sem,
                    &config,
                )?;
                Ok(match witness {
                    None => Answer::Minimal,
                    Some(witness) => Answer::NotMinimal { witness },
                })
            }
            Request::Reformulate { q, opts } => {
                let sem = self.effective_sem(opts);
                let cnb_opts = CnbOptions::default();
                let r = cnb_via(chaser, sem, q, &self.sigma, &self.schema, &config, &cnb_opts)?;
                Ok(Answer::Reformulated {
                    universal_plan: r.universal_plan,
                    reformulations: r.reformulations,
                    candidates_tested: r.candidates_tested,
                })
            }
            Request::Implies { dep, .. } => {
                let premise = premise_query(dep);
                let c = chaser.sound_chase(
                    Semantics::Set,
                    &premise,
                    &self.sigma,
                    &self.schema,
                    &config,
                )?;
                if c.failed {
                    return Ok(Answer::Implied {
                        chased_premise: c.query,
                        renaming: c.chased.renaming,
                        vacuous: true,
                    });
                }
                if conclusion_holds(dep, &c.query, &c.chased.renaming) {
                    Ok(Answer::Implied {
                        chased_premise: c.query,
                        renaming: c.chased.renaming,
                        vacuous: false,
                    })
                } else {
                    let counterexample =
                        self.implication_counterexample(chaser.trace, dep, &c.query);
                    Ok(Answer::NotImplied {
                        chased_premise: c.query,
                        renaming: c.chased.renaming,
                        counterexample,
                    })
                }
            }
            Request::ChaseInstance { db, .. } => {
                let r = chase_database(db, &self.sigma, &config, &chaser.engine.guard)?;
                if r.failed {
                    return Err(Error::EgdFailure { operation: "chase-instance" });
                }
                Ok(Answer::ChasedInstance { db: r.db, steps: r.steps })
            }
        }
    }

    /// Σ-equivalence with evidence. Decision-equivalent to the legacy
    /// [`eqsql_core::sigma_equivalent_via`] (pinned by the randomized
    /// differential suite); this path additionally materializes the
    /// witnesses the boolean tests only prove exist.
    fn equivalence(
        &self,
        chaser: &SolverChaser<'_>,
        sem: Semantics,
        q1: &CqQuery,
        q2: &CqQuery,
        config: &ChaseConfig,
    ) -> Result<Answer, Error> {
        let c1 = chaser.sound_chase(sem, q1, &self.sigma, &self.schema, config)?;
        let c2 = chaser.sound_chase(sem, q2, &self.sigma, &self.schema, config)?;
        match (c1.failed, c2.failed) {
            (true, true) => {
                return Ok(Answer::Equivalent {
                    certificate: EquivalenceCertificate::BothUnsatisfiable,
                });
            }
            (true, false) | (false, true) => {
                return Ok(Answer::NotEquivalent {
                    counterexample: self.equivalence_counterexample(chaser, sem, q1, q2, config),
                });
            }
            (false, false) => {}
        }
        let certificate = match sem {
            Semantics::Set => {
                let forward = containment_mapping(&c2.query, &c1.query);
                let backward = containment_mapping(&c1.query, &c2.query);
                match (forward, backward) {
                    (Some(forward), Some(backward)) => Some(EquivalenceCertificate::Set {
                        chased1: c1.query,
                        chased2: c2.query,
                        forward,
                        backward,
                    }),
                    _ => None,
                }
            }
            Semantics::Bag => {
                let is_set = |p| self.schema.is_set_valued(p);
                let n1 = eqsql_cq::iso::dedup_set_valued(&c1.query, is_set);
                let n2 = eqsql_cq::iso::dedup_set_valued(&c2.query, is_set);
                find_isomorphism(&n1, &n2).map(|bijection| EquivalenceCertificate::Iso {
                    normal1: n1,
                    normal2: n2,
                    bijection,
                })
            }
            Semantics::BagSet => {
                let n1 = canonical_representation(&c1.query);
                let n2 = canonical_representation(&c2.query);
                find_isomorphism(&n1, &n2).map(|bijection| EquivalenceCertificate::Iso {
                    normal1: n1,
                    normal2: n2,
                    bijection,
                })
            }
        };
        Ok(match certificate {
            Some(certificate) => Answer::Equivalent { certificate },
            None => Answer::NotEquivalent {
                counterexample: self.equivalence_counterexample(chaser, sem, q1, q2, config),
            },
        })
    }

    fn equivalence_counterexample(
        &self,
        chaser: &SolverChaser<'_>,
        sem: Semantics,
        q1: &CqQuery,
        q2: &CqQuery,
        config: &ChaseConfig,
    ) -> Option<Counterexample> {
        if !self.counterexamples {
            return None;
        }
        // Route the search's query chases through the shared cache —
        // they are exactly the chases that just produced the negative
        // verdict this witness decorates. The search accepts a database
        // only by the check `Counterexample::verify` replays.
        let search = || {
            separating_database_via(chaser, sem, q1, q2, &self.sigma, &self.schema, config)
                .map(|db| Counterexample { db, sem })
        };
        match chaser.trace {
            // The search's nested chases already bill Chase/Cache time;
            // Evidence gets only the remainder, keeping phases disjoint.
            Some(t) => t.time_excluding(Phase::Evidence, &[Phase::Chase, Phase::Cache], search),
            None => search(),
        }
    }

    /// Set containment with evidence. Decision-equivalent to
    /// [`eqsql_core::sigma_set_contained_via`].
    fn containment(
        &self,
        chaser: &SolverChaser<'_>,
        q1: &CqQuery,
        q2: &CqQuery,
        config: &ChaseConfig,
    ) -> Result<Answer, Error> {
        let c1 = chaser.sound_chase(Semantics::Set, q1, &self.sigma, &self.schema, config)?;
        if c1.failed {
            return Ok(Answer::Contained { certificate: ContainmentCertificate::EmptyLeft });
        }
        let c2 = chaser.sound_chase(Semantics::Set, q2, &self.sigma, &self.schema, config)?;
        if c2.failed {
            // q2 is empty under Σ while q1 is not: the canonical database
            // of (q1)_{Σ,S} exhibits the gap.
            return Ok(Answer::NotContained {
                counterexample: self.containment_counterexample(chaser.trace, &c1.query, q1, q2),
            });
        }
        match containment_mapping(q2, &c1.query) {
            Some(witness) => Ok(Answer::Contained {
                certificate: ContainmentCertificate::Mapping { chased1: c1.query, witness },
            }),
            None => Ok(Answer::NotContained {
                counterexample: self.containment_counterexample(chaser.trace, &c1.query, q1, q2),
            }),
        }
    }

    /// The canonical database of the chased premise is *the* implication
    /// counterexample (the terminal satisfies Σ; the failed conclusion
    /// check is witnessed by the canonical embedding). Built only when
    /// counterexample search is on; attached only if it replays, so a
    /// `NotImplied` verdict never carries evidence its own `verify` would
    /// reject.
    fn implication_counterexample(
        &self,
        trace: Option<&TraceCtx>,
        dep: &Dependency,
        chased_premise: &CqQuery,
    ) -> Option<ImplicationCounterexample> {
        if !self.counterexamples {
            return None;
        }
        let build = || {
            let cex = ImplicationCounterexample { db: canonical_database(chased_premise, 0).db };
            cex.verify(dep, &self.sigma).ok()?;
            Some(cex)
        };
        match trace {
            // No nested chases: the whole construction is Evidence time.
            Some(t) => t.time(Phase::Evidence, build),
            None => build(),
        }
    }

    fn containment_counterexample(
        &self,
        trace: Option<&TraceCtx>,
        chased1: &CqQuery,
        q1: &CqQuery,
        q2: &CqQuery,
    ) -> Option<Counterexample> {
        if !self.counterexamples {
            return None;
        }
        let search = || {
            let db = canonical_database(chased1, 0).db;
            let cex = Counterexample { db, sem: Semantics::Set };
            cex.verify_set_gap(q1, q2, &self.sigma).ok()?;
            Some(cex)
        };
        match trace {
            // This witness issues no chases of its own — the whole search
            // is Evidence time.
            Some(t) => t.time(Phase::Evidence, search),
            None => search(),
        }
    }

    /// The sound three-valued bag-containment procedure: chase both sides
    /// with the sound bag chase (equivalence-preserving on `D ⊨ Σ`), then
    /// try the multiset-onto sufficient condition and a Σ-repaired
    /// falsifier. Answers `BagContainmentOpen` when neither lands — the
    /// general problem is open \[18\].
    fn bag_containment(
        &self,
        chaser: &SolverChaser<'_>,
        q1: &CqQuery,
        q2: &CqQuery,
        config: &ChaseConfig,
    ) -> Result<Answer, Error> {
        let c1 = chaser.sound_chase(Semantics::Bag, q1, &self.sigma, &self.schema, config)?;
        if c1.failed {
            return Ok(Answer::BagContained { certificate: BagContainmentCertificate::EmptyLeft });
        }
        let c2 = chaser.sound_chase(Semantics::Bag, q2, &self.sigma, &self.schema, config)?;
        if !c2.failed {
            if let Some(witness) = onto_containment_mapping(&c1.query, &c2.query) {
                return Ok(Answer::BagContained {
                    certificate: BagContainmentCertificate::OntoMapping {
                        chased1: c1.query,
                        chased2: c2.query,
                        witness,
                    },
                });
            }
        }
        // Falsification: candidate databases from the chased queries,
        // repaired into models of Σ, verified to exhibit a multiplicity
        // gap on the *original* queries. The falsifier's search runs only
        // if the canonical candidate and its repair fail.
        let canonical = canonical_database(&c1.query, 0).db;
        let falsified = std::iter::once_with(|| {
            if c2.failed {
                None
            } else {
                find_non_containment_witness(&c1.query, &c2.query, 8)
            }
        });
        for db in std::iter::once(canonical).chain(falsified.flatten()) {
            // Try the raw candidate first; only pay for the instance-chase
            // repair when it fails to verify (a candidate that already
            // satisfies Σ would repair to itself anyway).
            let cex = Counterexample { db, sem: Semantics::Bag };
            if cex.verify_bag_gap(q1, q2, &self.sigma, &self.schema).is_ok() {
                return Ok(Answer::BagNotContained { counterexample: cex });
            }
            let Some(db) = Self::repair(&cex.db, &self.sigma, config, &chaser.engine.guard) else {
                continue;
            };
            let cex = Counterexample { db, sem: Semantics::Bag };
            if cex.verify_bag_gap(q1, q2, &self.sigma, &self.schema).is_ok() {
                return Ok(Answer::BagNotContained { counterexample: cex });
            }
        }
        Ok(Answer::BagContainmentOpen)
    }

    fn repair(
        db: &Database,
        sigma: &DependencySet,
        config: &ChaseConfig,
        guard: &RunGuard,
    ) -> Option<Database> {
        match chase_database(db, sigma, config, guard) {
            Ok(r) if !r.failed => Some(r.db),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqsql_chase::Fault;
    use eqsql_cq::parse_query;
    use eqsql_deps::{parse_dependencies, parse_dependency};

    fn example_4_1() -> (DependencySet, Schema) {
        let sigma = parse_dependencies(
            "p(X,Y) -> s(X,Z) & t(X,V,W).\n\
             p(X,Y) -> t(X,Y,W).\n\
             p(X,Y) -> r(X).\n\
             p(X,Y) -> u(X,Z) & t(X,Y,W).\n\
             s(X,Y) & s(X,Z) -> Y = Z.\n\
             t(X,Y,W1) & t(X,Y,W2) -> W1 = W2.",
        )
        .unwrap();
        let mut schema = Schema::all_bags(&[("p", 2), ("r", 1), ("s", 2), ("t", 3), ("u", 2)]);
        schema.mark_set_valued(eqsql_cq::Predicate::new("s"));
        schema.mark_set_valued(eqsql_cq::Predicate::new("t"));
        (sigma, schema)
    }

    fn solver() -> Solver {
        let (sigma, schema) = example_4_1();
        Solver::builder(sigma, schema).build()
    }

    fn q(s: &str) -> CqQuery {
        parse_query(s).unwrap()
    }

    #[test]
    fn equivalence_verdicts_carry_verified_evidence() {
        let s = solver();
        let q1 = q("q1(X) :- p(X,Y), t(X,Y,W), s(X,Z), r(X), u(X,U)");
        let q4 = q("q4(X) :- p(X,Y)");
        // Set: equivalent, with both containment mappings.
        let req =
            Request::Equivalent { q1: q1.clone(), q2: q4.clone(), opts: RequestOpts::default() };
        let v = s.decide(&req).unwrap();
        assert!(matches!(
            v.answer,
            Answer::Equivalent { certificate: EquivalenceCertificate::Set { .. } }
        ));
        v.verify(&req, s.sigma(), s.schema()).unwrap();
        // Bag: not equivalent, with a verified separating database.
        let req = Request::Equivalent { q1, q2: q4, opts: RequestOpts::with_sem(Semantics::Bag) };
        let v = s.decide(&req).unwrap();
        match &v.answer {
            Answer::NotEquivalent { counterexample: Some(_) } => {}
            other => panic!("expected a witnessed NotEquivalent, got {other:?}"),
        }
        v.verify(&req, s.sigma(), s.schema()).unwrap();
    }

    #[test]
    fn bag_and_bag_set_equivalences_use_iso_certificates() {
        let s = solver();
        let q3 = q("q3(X) :- p(X,Y), t(X,Y,W), s(X,Z)");
        let q4 = q("q4(X) :- p(X,Y)");
        let req = Request::Equivalent {
            q1: q3,
            q2: q4.clone(),
            opts: RequestOpts::with_sem(Semantics::Bag),
        };
        let v = s.decide(&req).unwrap();
        assert!(matches!(
            v.answer,
            Answer::Equivalent { certificate: EquivalenceCertificate::Iso { .. } }
        ));
        v.verify(&req, s.sigma(), s.schema()).unwrap();
        let q2v = q("q2(X) :- p(X,Y), t(X,Y,W), s(X,Z), r(X)");
        let req =
            Request::Equivalent { q1: q2v, q2: q4, opts: RequestOpts::with_sem(Semantics::BagSet) };
        let v = s.decide(&req).unwrap();
        assert!(v.is_positive());
        v.verify(&req, s.sigma(), s.schema()).unwrap();
    }

    #[test]
    fn containment_and_its_gap_witness() {
        let sigma = parse_dependencies("a(X) -> b(X).").unwrap();
        let schema = Schema::all_bags(&[("a", 1), ("b", 1)]);
        let s = Solver::builder(sigma, schema).build();
        let qa = q("q(X) :- a(X)");
        let qab = q("q(X) :- a(X), b(X)");
        let req =
            Request::Contained { q1: qa.clone(), q2: qab.clone(), opts: RequestOpts::default() };
        let v = s.decide(&req).unwrap();
        assert!(matches!(v.answer, Answer::Contained { .. }));
        v.verify(&req, s.sigma(), s.schema()).unwrap();
        // Without the dependency the containment fails, with a witness.
        let s2 = Solver::builder(DependencySet::new(), s.schema().clone()).build();
        let req = Request::Contained { q1: qa, q2: qab, opts: RequestOpts::default() };
        let v = s2.decide(&req).unwrap();
        match &v.answer {
            Answer::NotContained { counterexample: Some(_) } => {}
            other => panic!("expected witnessed NotContained, got {other:?}"),
        }
        v.verify(&req, s2.sigma(), s2.schema()).unwrap();
        // Bag semantics on a set-containment request is a taxonomy error.
        let req = Request::Contained {
            q1: q("q(X) :- a(X)"),
            q2: q("q(X) :- a(X)"),
            opts: RequestOpts::with_sem(Semantics::Bag),
        };
        assert!(matches!(s2.decide(&req), Err(Error::UnsupportedSemantics { .. })));
    }

    #[test]
    fn bag_containment_three_values() {
        let schema = Schema::all_bags(&[("p", 2), ("r", 1)]);
        let s = Solver::builder(DependencySet::new(), schema).build();
        let opts = RequestOpts::with_sem(Semantics::Bag);
        // m ≤ m²: contained, via the multiset-onto witness.
        let req = Request::BagContained {
            q1: q("q(X) :- p(X,Y)"),
            q2: q("q(X) :- p(X,Y), p(X,Y)"),
            opts,
        };
        let v = s.decide(&req).unwrap();
        assert!(matches!(v.answer, Answer::BagContained { .. }));
        v.verify(&req, s.sigma(), s.schema()).unwrap();
        // m² ≥ m fails: not contained, witnessed by an amplified database.
        let req = Request::BagContained {
            q1: q("q(X) :- p(X,Y), r(X), r(X)"),
            q2: q("q(X) :- p(X,Y), r(X)"),
            opts,
        };
        let v = s.decide(&req).unwrap();
        assert!(matches!(v.answer, Answer::BagNotContained { .. }));
        v.verify(&req, s.sigma(), s.schema()).unwrap();
        // The variant fixes the semantics: a request that names none is
        // still bag containment, not refused as a set-semantics request.
        let req = Request::BagContained {
            q1: q("q(X) :- p(X,Y)"),
            q2: q("q(X) :- p(X,Y), p(X,Y)"),
            opts: RequestOpts::default(),
        };
        assert!(matches!(s.decide(&req).unwrap().answer, Answer::BagContained { .. }));
    }

    #[test]
    fn minimality_reformulation_and_implication() {
        let s = solver();
        let q1 = q("q1(X) :- p(X,Y), t(X,Y,W), s(X,Z), r(X), u(X,U)");
        let v =
            s.decide(&Request::Minimal { q: q1.clone(), opts: RequestOpts::default() }).unwrap();
        match v.answer {
            Answer::NotMinimal { witness } => {
                assert!(witness.reduced.body.len() < q1.body.len());
            }
            other => panic!("Q1 is not Σ-minimal, got {other:?}"),
        }
        let q4 = q("q4(X) :- p(X,Y)");
        let v =
            s.decide(&Request::Minimal { q: q4.clone(), opts: RequestOpts::default() }).unwrap();
        assert!(matches!(v.answer, Answer::Minimal));
        // C&B of Q1 under set semantics finds exactly Q4.
        let v = s.decide(&Request::Reformulate { q: q1, opts: RequestOpts::default() }).unwrap();
        match v.answer {
            Answer::Reformulated { reformulations, .. } => {
                assert_eq!(reformulations.len(), 1);
                assert!(eqsql_cq::are_isomorphic(&reformulations[0], &q4));
            }
            other => panic!("expected Reformulated, got {other:?}"),
        }
        // Implication through the same solver and cache.
        let dep = parse_dependency("p(X,Y) -> s(X,Z)").unwrap();
        let v = s.decide(&Request::Implies { dep, opts: RequestOpts::default() }).unwrap();
        assert!(matches!(v.answer, Answer::Implied { vacuous: false, .. }));
        let dep = parse_dependency("s(X,Z) -> p(X,Y)").unwrap();
        let v = s.decide(&Request::Implies { dep, opts: RequestOpts::default() }).unwrap();
        assert!(matches!(v.answer, Answer::NotImplied { .. }));
    }

    #[test]
    fn implied_evidence_replays_without_a_chase() {
        let s = solver();
        let replay = |req: &Request, answer: Answer| {
            Verdict { answer, stats: DecisionStats::default() }.verify(req, s.sigma(), s.schema())
        };
        // A tgd: the chased premise carries the conclusion's s-atom.
        let req = Request::Implies {
            dep: parse_dependency("p(X,Y) -> s(X,Z)").unwrap(),
            opts: RequestOpts::default(),
        };
        let v = s.decide(&req).unwrap();
        v.verify(&req, s.sigma(), s.schema()).unwrap();
        let Answer::Implied { chased_premise, renaming, vacuous: false } = v.answer else {
            panic!("Σ implies the tgd non-vacuously, got {:?}", v.answer);
        };
        let mut lost = chased_premise.clone();
        lost.body.retain(|a| a.pred != eqsql_cq::Predicate::new("s"));
        let forged = Answer::Implied { chased_premise: lost, renaming, vacuous: false };
        assert!(replay(&req, forged).is_err(), "a premise without the conclusion atom replayed");
        // An egd: the conclusion lives in the renaming, not in the body.
        let req = Request::Implies {
            dep: parse_dependency("s(X,Y) & s(X,Z) -> Y = Z").unwrap(),
            opts: RequestOpts::default(),
        };
        let v = s.decide(&req).unwrap();
        v.verify(&req, s.sigma(), s.schema()).unwrap();
        let Answer::Implied { chased_premise, vacuous: false, .. } = v.answer else {
            panic!("Σ implies its own key egd non-vacuously, got {:?}", v.answer);
        };
        let forged = Answer::Implied { chased_premise, renaming: Subst::new(), vacuous: false };
        assert!(replay(&req, forged).is_err(), "an identity renaming replayed an egd");
    }

    #[test]
    fn budget_overrides_and_error_taxonomy() {
        let sigma = parse_dependencies("e(X,Y) -> e(Y,Z).").unwrap();
        let schema = Schema::all_bags(&[("e", 2)]);
        let s = Solver::builder(sigma, schema).build();
        let req = Request::Equivalent {
            q1: q("q(X) :- e(X,Y)"),
            q2: q("q(X) :- e(X,Y), e(Y,Z)"),
            opts: RequestOpts { max_steps: Some(10), ..RequestOpts::default() },
        };
        assert!(matches!(s.decide(&req), Err(Error::BudgetExhausted { .. })));
        // An unrepairable instance is an egd failure.
        let sigma = parse_dependencies("s(X,Y) & s(X,Z) -> Y = Z.").unwrap();
        let schema = Schema::all_bags(&[("s", 2)]);
        let s = Solver::builder(sigma, schema).build();
        let mut db = Database::new();
        db.insert("s", eqsql_relalg::Tuple::ints([1, 2]), 1);
        db.insert("s", eqsql_relalg::Tuple::ints([1, 3]), 1);
        let req = Request::ChaseInstance { db, opts: RequestOpts::default() };
        assert_eq!(s.decide(&req).unwrap_err(), Error::EgdFailure { operation: "chase-instance" });
    }

    #[test]
    fn verify_rejects_mismatched_request_and_answer() {
        let s = solver();
        let q4 = q("q4(X) :- p(X,Y)");
        let req =
            Request::Equivalent { q1: q4.clone(), q2: q4.clone(), opts: RequestOpts::default() };
        let v = s.decide(&req).unwrap();
        v.verify(&req, s.sigma(), s.schema()).unwrap();
        // The same verdict against a different request kind must fail.
        let wrong = Request::Minimal { q: q4, opts: RequestOpts::default() };
        assert!(v.verify(&wrong, s.sigma(), s.schema()).is_err());
    }

    #[test]
    fn tampered_minimality_witness_fails_structural_replay() {
        let s = solver();
        let q1 = q("q1(X) :- p(X,Y), t(X,Y,W), s(X,Z), r(X), u(X,U)");
        let req = Request::Minimal { q: q1.clone(), opts: RequestOpts::default() };
        let v = s.decide(&req).unwrap();
        v.verify(&req, s.sigma(), s.schema()).unwrap();
        // Grafting an atom the identification never had breaks the
        // sub-multiset property.
        let Answer::NotMinimal { witness } = &v.answer else { panic!("Q1 is not minimal") };
        let mut tampered = witness.clone();
        tampered.reduced = q("q1(X) :- p(X,Y), p(Y,X)");
        let forged = Verdict { answer: Answer::NotMinimal { witness: tampered }, stats: v.stats };
        assert!(forged.verify(&req, s.sigma(), s.schema()).is_err());
    }

    #[test]
    fn instance_chase_repairs_into_a_model() {
        let sigma = parse_dependencies("a(X) -> b(X).").unwrap();
        let schema = Schema::all_bags(&[("a", 1), ("b", 1)]);
        let s = Solver::builder(sigma.clone(), schema).build();
        let mut db = Database::new();
        db.insert("a", eqsql_relalg::Tuple::ints([1]), 1);
        let v = s.decide(&Request::ChaseInstance { db, opts: RequestOpts::default() }).unwrap();
        match v.answer {
            Answer::ChasedInstance { db, steps } => {
                assert!(steps >= 1);
                assert!(eqsql_deps::satisfaction::db_satisfies_all(&db, &sigma));
            }
            other => panic!("expected ChasedInstance, got {other:?}"),
        }
    }

    #[test]
    fn decide_all_orders_verdicts_and_counts() {
        let s = solver();
        let q3 = q("q3(X) :- p(X,Y), t(X,Y,W), s(X,Z)");
        let q4 = q("q4(X) :- p(X,Y)");
        let reqs = vec![
            Request::Equivalent {
                q1: q3.clone(),
                q2: q4.clone(),
                opts: RequestOpts::with_sem(Semantics::Bag),
            },
            Request::Minimal { q: q4.clone(), opts: RequestOpts::default() },
            Request::Contained { q1: q4, q2: q3, opts: RequestOpts::default() },
        ];
        let report = s.decide_all(&reqs);
        assert_eq!(report.verdicts.len(), 3);
        assert!(report.verdicts.iter().all(|v| v.as_ref().unwrap().is_positive()));
        let stats = s.stats();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.batches, 1);
        assert!(stats.cache.misses > 0);
    }

    /// Example 4.1's six pairs against Q4 across the three semantics, with
    /// the paper's verdicts (`true`: equivalent).
    fn example_4_1_pairs() -> (Vec<Request>, Vec<bool>) {
        let q1 = q("q1(X) :- p(X,Y), t(X,Y,W), s(X,Z), r(X), u(X,U)");
        let q2 = q("q2(X) :- p(X,Y), t(X,Y,W), s(X,Z), r(X)");
        let q3 = q("q3(X) :- p(X,Y), t(X,Y,W), s(X,Z)");
        let q4 = q("q4(X) :- p(X,Y)");
        use Semantics::{Bag, BagSet, Set};
        let reqs = [(Set, &q1), (Bag, &q1), (Bag, &q3), (BagSet, &q2), (Bag, &q2), (Set, &q3)]
            .into_iter()
            .map(|(sem, q)| Request::Equivalent {
                q1: q.clone(),
                q2: q4.clone(),
                opts: RequestOpts::with_sem(sem),
            })
            .collect();
        (reqs, vec![true, false, true, true, false, true])
    }

    fn positives(report: &BatchReport) -> Vec<bool> {
        report.verdicts.iter().map(|v| v.as_ref().unwrap().is_positive()).collect()
    }

    #[test]
    fn batch_matches_unbatched_verdicts_across_thread_counts() {
        let (sigma, schema) = example_4_1();
        let (reqs, want) = example_4_1_pairs();
        let unbatched = solver();
        let alone: Vec<bool> =
            reqs.iter().map(|r| unbatched.decide(r).unwrap().is_positive()).collect();
        assert_eq!(alone, want);
        for threads in [1, 4, 8] {
            let s = Solver::builder(sigma.clone(), schema.clone())
                .counterexamples(false)
                .threads(threads)
                .build();
            let report = s.decide_all(&reqs);
            assert_eq!((report.threads, report.shed), (threads.min(reqs.len()), 0));
            assert_eq!(positives(&report), want, "threads={threads}");
        }
    }

    #[test]
    fn shared_sigma_amortizes_chases_across_pairs() {
        let (sigma, schema) = example_4_1();
        let s = Solver::builder(sigma, schema).counterexamples(false).build();
        let (reqs, want) = example_4_1_pairs();
        let report = s.decide_all(&reqs);
        assert_eq!(positives(&report), want);
        // 6 pairs → 12 chases demanded; Q4 recurs twice under Set and
        // three times under Bag, so the cache absorbs at least 3.
        assert!(report.stats.cache_hits >= 3, "{:?}", report.stats);
        // A second identical batch is served entirely from cache.
        let again = s.decide_all(&reqs);
        assert_eq!(positives(&again), want);
        assert_eq!(again.stats.cache_misses, 0, "{:?}", again.stats);
        assert_eq!(again.stats.chase_steps, report.stats.chase_steps);
    }

    #[test]
    fn unknown_outcomes_flow_through_batches() {
        let sigma = parse_dependencies("e(X,Y) -> e(Y,Z).").unwrap();
        let schema = Schema::all_bags(&[("e", 2)]);
        // The default single worker decides the requests in order, so the
        // second one deterministically probes the exhaustion the first cached.
        let s =
            Solver::builder(sigma, schema).chase_config(ChaseConfig::with_max_steps(10)).build();
        let req = Request::Equivalent {
            q1: q("q(X) :- e(X,Y)"),
            q2: q("q(X) :- e(X,Y), e(Y,Z)"),
            opts: RequestOpts::default(),
        };
        let report = s.decide_all(&[req.clone(), req]);
        assert_eq!(report.verdicts.len(), 2);
        for v in &report.verdicts {
            assert!(matches!(v, Err(Error::BudgetExhausted { .. })), "{v:?}");
        }
        assert!(report.stats.cache_hits >= 1, "{:?}", report.stats);
    }

    #[test]
    fn request_without_semantics_is_decided_under_set() {
        let s = solver();
        let (reqs, want) = example_4_1_pairs();
        // Pairs 0 and 1 ask Q1 ≡ Q4 under Set and Bag and get different
        // answers; the same pair naming no semantics gets Set's.
        assert_ne!(want[0], want[1]);
        let Request::Equivalent { q1, q2, .. } = &reqs[0] else { unreachable!() };
        let opts = RequestOpts::default();
        let req = Request::Equivalent { q1: q1.clone(), q2: q2.clone(), opts };
        assert_eq!(s.decide(&req).unwrap().is_positive(), want[0]);
        // The containment variants fix their own semantics; only an
        // explicit conflicting one errors.
        let opts = RequestOpts::with_sem(Semantics::Set);
        let req = Request::BagContained { q1: q2.clone(), q2: q2.clone(), opts };
        assert!(matches!(
            s.decide(&req),
            Err(Error::UnsupportedSemantics { operation: "bag-containment", sem: Semantics::Set })
        ));
    }

    #[test]
    fn trace_sink_gets_one_event_per_batch_request() {
        let (sigma, schema) = example_4_1();
        let sink = Arc::new(eqsql_obs::VecSink::new());
        let s = Solver::builder(sigma, schema)
            .trace_sink(Arc::clone(&sink) as Arc<dyn TraceSink>)
            .build();
        let q3 = q("q3(X) :- p(X,Y), t(X,Y,W), s(X,Z)");
        let q4 = q("q4(X) :- p(X,Y)");
        let reqs = vec![
            Request::Equivalent { q1: q3.clone(), q2: q4.clone(), opts: RequestOpts::default() },
            // Same pair again: the second decision rides the cache.
            Request::Equivalent { q1: q3, q2: q4, opts: RequestOpts::default() },
        ];
        let report = s.decide_all(&reqs);
        assert!(report.verdicts.iter().all(|v| v.is_ok()));
        let lines = sink.lines();
        assert_eq!(lines.len(), 2, "one event per request: {lines:?}");
        for (i, line) in lines.iter().enumerate() {
            assert!(line.starts_with("verdict "), "{line}");
            assert!(line.contains(&format!("id={i} ")), "{line}");
            assert!(line.contains("verb=equivalent "), "{line}");
            assert!(line.contains("terminal=ok "), "{line}");
        }
        // The repeat decision's chases all hit: its event attributes them
        // to the memory tier and bills no fresh engine work.
        assert!(lines[1].contains("misses=0"), "{}", lines[1]);
        assert!(lines[1].contains("engine_steps=0"), "{}", lines[1]);
        assert!(!lines[1].contains("mem_hits=0"), "{}", lines[1]);
        // Aggregates flowed into the solver's stats.
        let stats = s.stats();
        assert_eq!(stats.latency.count, 2);
        assert!(stats.phase.chase_us + stats.phase.cache_us + stats.phase.evidence_us > 0);
    }

    /// A decision that panics is isolated to an [`Error::Internal`] whose
    /// record is one line, for the wire and for the trace sink alike. The
    /// panic is injected at the first guard poll. How a multi-line
    /// message is flattened is pinned by `eqsql_net`'s
    /// `verdict_lines_round_trip`.
    #[test]
    fn a_panicking_decision_renders_one_line() {
        let sigma = parse_dependencies("a(X) -> b(X).").unwrap();
        let schema = Schema::all_bags(&[("a", 1)]);
        let sink = Arc::new(eqsql_obs::VecSink::new());
        let s = Solver::builder(sigma, schema)
            .trace_sink(Arc::clone(&sink) as Arc<dyn TraceSink>)
            .build();
        let req = Request::Equivalent {
            q1: q("q(X) :- a(X), b(X)"),
            q2: q("q(X) :- a(X)"),
            opts: RequestOpts {
                fault: Some(FaultPlan::new(1, Fault::Panic)),
                ..RequestOpts::with_sem(Semantics::Bag)
            },
        };
        let record = s.decide_request(&req, &BatchOptions::default(), Instant::now(), 7);
        let Err(Error::Internal { message }) = &record.verdict else {
            panic!("expected an isolated panic, got {:?}", record.verdict)
        };
        let line = record.render();
        assert!(!line.contains(['\n', '\r']), "{line}");
        assert!(line.starts_with("verdict id=7 verb=equivalent "), "{line}");
        assert!(line.contains(" terminal=panic "), "{line}");
        let flat = message.replace(['\r', '\n'], " ");
        assert!(line.ends_with(&format!(" msg=internal error: {flat}")), "{line}");
        assert_eq!(sink.lines(), vec![line]);
        assert_eq!(s.stats().panics, 1);
    }

    /// A request whose atoms disagree with the schema's or Σ's arities
    /// gets the wire parser's typed error before any chase, from
    /// [`Solver::decide`] and [`Solver::decide_request`] alike; so does one
    /// relation at two arities, declared or not.
    #[test]
    fn a_wrong_arity_request_is_a_parse_error() {
        let sigma = parse_dependencies("a(X) -> b(X).").unwrap();
        let schema = Schema::all_bags(&[("a", 1), ("b", 1)]);
        let s = Solver::builder(sigma, schema).build();
        let req = Request::Equivalent {
            q1: q("q(X) :- a(X), a(X,Y)"),
            q2: q("q(X) :- a(X)"),
            opts: RequestOpts::with_sem(Semantics::Bag),
        };
        let Err(Error::Parse { line: 0, message }) = s.decide(&req) else {
            panic!("expected a parse error, got {:?}", s.decide(&req))
        };
        assert_eq!(message, "relation a used with arities 1 and 2");
        let line = s.decide_request(&req, &BatchOptions::default(), Instant::now(), 3).render();
        assert!(line.starts_with("verdict id=3 verb=equivalent outcome=parse-error "), "{line}");
        assert!(line.contains(" terminal=error "), "{line}");
        let req = Request::Minimal { q: q("q(X) :- c(X), c(X,Y)"), opts: RequestOpts::default() };
        assert!(matches!(s.decide(&req), Err(Error::Parse { .. })));
        // A relation only Σ mentions is checked at Σ's arity.
        let sigma = parse_dependencies("a(X) -> b(X).").unwrap();
        let s_a = Solver::builder(sigma, Schema::all_bags(&[("a", 1)])).build();
        let req_b = Request::Equivalent {
            q1: q("q(X) :- a(X), b(X,Y)"),
            q2: q("q(X) :- a(X)"),
            opts: RequestOpts::with_sem(Semantics::Bag),
        };
        let Err(Error::Parse { line: 0, message }) = s_a.decide(&req_b) else {
            panic!("expected a parse error, got {:?}", s_a.decide(&req_b))
        };
        assert_eq!(message, "relation b used with arities 1 and 2");
        let line = s_a.decide_request(&req_b, &BatchOptions::default(), Instant::now(), 4).render();
        assert!(line.starts_with("verdict id=4 verb=equivalent outcome=parse-error "), "{line}");
        assert!(line.contains(" terminal=error "), "{line}");
        assert_eq!(s_a.stats().panics, 0);
        // A Σ at odds with the schema makes every request that parse error.
        let sigma = parse_dependencies("a(X,Y) -> b(X).").unwrap();
        let s_bad = Solver::builder(sigma, Schema::all_bags(&[("a", 1)])).build();
        let req = Request::Minimal { q: q("q(X) :- b(X)"), opts: RequestOpts::default() };
        let Err(Error::Parse { message, .. }) = s_bad.decide(&req) else {
            panic!("expected a parse error, got {:?}", s_bad.decide(&req))
        };
        assert_eq!(message, "relation a used with arities 1 and 2");
        // A database relation counts as a use: a binary `b` would take
        // the repair's unary `b` tuple.
        let db = Database::new().with_ints("a", &[[1]]).with_ints("b", &[[1, 2]]);
        let req = Request::ChaseInstance { db, opts: RequestOpts::default() };
        assert!(matches!(s.decide(&req), Err(Error::Parse { .. })));
        assert_eq!(s.stats().panics, 0);
    }
}
