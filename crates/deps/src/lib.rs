//! # eqsql-deps — embedded dependencies
//!
//! Embedded dependencies `φ(Ū, W̄) → ∃V̄ ψ(Ū, V̄)` (§2.4 of the paper),
//! normalized as tuple-generating dependencies (tgds) and equality-
//! generating dependencies (egds), plus everything the chase layer needs to
//! reason about them:
//!
//! * functional dependencies, superkeys and keys with FD-closure
//!   (Appendix B);
//! * the tuple-ID framework that expresses "relation R is set-valued on
//!   every instance" as an egd (Appendix C);
//! * tgd **regularization** (Definition 4.1) — splitting right-hand sides
//!   into components connected through existential variables;
//! * **weak acyclicity** (Definition H.1), the standard chase-termination
//!   condition;
//! * dependency satisfaction, both symbolically on the canonical database
//!   of a query and on concrete database instances.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dependency;
pub mod fd;
pub mod implication;
pub mod keys;
pub mod parse;
pub mod regularize;
pub mod satisfaction;
pub mod set_enforcing;
pub mod weak_acyclicity;

pub use dependency::{Dependency, DependencySet, Egd, Tgd};
pub use parse::{parse_dependencies, parse_dependency};
pub use regularize::{is_regularized, regularize_set, regularize_tgd};
pub use weak_acyclicity::is_weakly_acyclic;
