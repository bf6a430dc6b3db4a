//! # eqsql-chase — the chase, sound under bag and bag-set semantics
//!
//! This crate implements the central technical machinery of Chirkova &
//! Genesereth (PODS 2009):
//!
//! * the classical **set-semantics chase** of CQ queries with embedded
//!   dependencies (§2.4), with tgd and egd steps, failure detection and a
//!   step budget (chase termination is undecidable in general; weak
//!   acyclicity guarantees it, Theorem H.1);
//! * **associated test queries** `Q^{σ,h,θ}` (Definition 4.2) and the
//!   **assignment-fixing** test for tgds (Definition 4.3) — the paper's
//!   query-dependent criterion for when a tgd chase step preserves answer
//!   multiplicities;
//! * **key-based tgds** (Definition 5.1, the UWDs of Deutsch \[9\]) — the
//!   strictly weaker, query-independent criterion, kept as a predicate for
//!   comparison (the ablation benchmark times it against the
//!   assignment-fixing test);
//! * **sound chase** under bag and bag-set semantics (Theorems 4.1 and
//!   4.3), with result normalization per the uniqueness theorems (5.1 /
//!   G.1);
//! * the **Max-Bag-Σ-Subset** and **Max-Bag-Set-Σ-Subset** algorithms
//!   (Algorithms 1–2, Theorem 5.3/I.1);
//! * an **instance-level chase** with labelled nulls, used to repair
//!   randomly generated databases and counterexample candidates into
//!   models of Σ, and to answer `Request::ChaseInstance`; it runs on the
//!   engine's compiled dependency plans and worklist.
//!
//! ## Execution architecture
//!
//! All query-level chases run on the **incremental indexed engine**
//! ([`engine`]): a persistent [`index::BodyIndex`] (the body as `u32`
//! term ids in per-predicate columnar tables of an
//! [`eqsql_cq::TermArena`], with variable-occurrence lists and atom
//! fingerprints) mutated in place, per-dependency compiled
//! [`eqsql_cq::ArenaPlan`]s searched first-match over a reusable
//! [`eqsql_cq::ArenaFrame`] with the conclusion-extension check seeded
//! in, and delta-driven (semi-naive) dependency scheduling. Its one entry
//! point, [`chase_indexed`], takes a dedup policy, an [`Admission`]
//! contract (every step, or a fallible predicate whose first error ends
//! the chase) and [`EngineOpts`] (a run guard and a step probe, neither of
//! which changes a result). [`set_chase()`] and
//! [`sound_chase_prepared_opts`] are thin wrappers over it. Every chase
//! records a [`ChaseTrace`]: typed step records (dependency index, body
//! size, the fired binding's terms) rendered to text only on demand. The
//! original naive restart-scan driver survives as [`mod@reference`] — the
//! differential-testing oracle (`tests/tests/engine_differential.rs`)
//! that pins the engine to the paper's step semantics, with the
//! underlying naive homomorphism search preserved as
//! `eqsql_cq::matcher::reference` (`tests/tests/matcher_differential.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod assignment_fixing;
pub mod engine;
pub mod error;
pub mod guard;
pub mod implication;
pub mod index;
pub mod instance;
pub mod key_based;
pub mod max_subset;
pub mod reference;
pub mod set_chase;
pub mod sound;
pub mod step;
pub mod test_query;
pub mod trace;

pub use assignment_fixing::{is_assignment_fixing, is_assignment_fixing_wrt_query};
pub use engine::{chase_indexed, Admission, EngineOpts};
pub use error::{ChaseConfig, ChaseError};
pub use guard::{Cancel, Fault, FaultPlan, RunGuard};
pub use implication::{implies, minimal_cover};
pub use index::BodyIndex;
pub use instance::{chase_database, chase_database_reference, InstanceChased};
pub use key_based::is_key_based;
pub use max_subset::{max_bag_set_sigma_subset, max_bag_sigma_subset};
pub use reference::{chase_with_policy_reference, set_chase_reference};
pub use set_chase::{set_chase, Chased};
pub use sound::{sound_chase, sound_chase_prepared, sound_chase_prepared_opts, SoundChased};
pub use trace::{ChaseTrace, StepAction, TraceEntry};
