//! # eqsql-gen — seeded generators for tests and benchmarks
//!
//! * random safe CQ queries over a schema;
//! * random **weakly acyclic** dependency sets (layered tgds + key egds),
//!   so every generated Σ has a terminating chase (Theorem H.1);
//! * random bag databases and their Σ-repairs (via the instance chase);
//! * the **Appendix H lower-bound family**: the `(Q, Σ)` pairs whose chase
//!   result is polynomial in `|Q|` but exponential in `|Σ|`
//!   (Examples H.1/H.2, witnessing the bound of Theorem 5.2).
//!
//! All generators take explicit [`rand::rngs::StdRng`] seeds, so failures
//! are reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod appendix_h;
pub mod db;
pub mod queries;
pub mod sigma;

pub use appendix_h::{appendix_h_instance, AppendixH};
pub use db::{random_database, repaired_database};
pub use queries::{random_query, rename_isomorphic};
pub use sigma::random_weakly_acyclic_sigma;
