//! # eqsql-relalg — bag-relational storage and evaluation
//!
//! The execution substrate of the `eqsql` workspace: bag-valued relations
//! and databases, and evaluation of conjunctive and aggregate queries under
//! the three SQL semantics the paper distinguishes (§2.1–2.2, §2.5):
//!
//! * **set semantics** (`S`) — stored relations and answers are sets;
//! * **bag-set semantics** (`BS`) — stored relations are sets, answers are
//!   bags (SQL without `DISTINCT` over `PRIMARY KEY`ed tables);
//! * **bag semantics** (`B`) — both are bags (SQL without key constraints,
//!   or over materialized views defined without `DISTINCT`).
//!
//! Two independent evaluators are provided: a naive assignment enumerator
//! ([`eval`]) that transcribes the paper's definitions literally, and a
//! bag-semantics operator algebra with a left-deep planner ([`ops`]). They
//! are cross-checked against each other in the test suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aggregate;
pub mod canonical;
pub mod database;
pub mod error;
pub mod eval;
pub mod ops;
pub mod provenance;
pub mod relation;
pub mod schema;
pub mod text;
pub mod tuple;

pub use canonical::{canonical_database, CanonicalDb};
pub use database::Database;
pub use error::EvalError;
pub use eval::{eval_bag, eval_bag_set, eval_set, Semantics};
pub use relation::Relation;
pub use schema::{RelSchema, Schema};
pub use tuple::Tuple;
