//! # eqsql-sql — the SQL face of the equivalence framework
//!
//! The paper is about *SQL* queries: SPJ blocks with equality predicates
//! (safe CQ queries), optionally with `DISTINCT` (set semantics for the
//! answer) and grouping/aggregation, over tables whose `PRIMARY KEY` /
//! `UNIQUE` constraints decide whether stored relations are sets or bags
//! (§1). This crate provides that face:
//!
//! * a [`parser`] for the SQL subset (SELECT/FROM/WHERE with equality
//!   conjunctions, GROUP BY with SUM/COUNT/COUNT(*)/MIN/MAX, CREATE TABLE
//!   with PRIMARY KEY, UNIQUE and FOREIGN KEY);
//! * a [`catalog`] that lowers DDL to a [`eqsql_relalg::Schema`] plus
//!   embedded dependencies: keys become egds, foreign keys become
//!   inclusion tgds, and keyed tables are marked set-valued (the paper's
//!   reading of the SQL standard);
//! * [`lower`]ing of SELECT statements to CQ / aggregate queries, and
//!   [`render`]ing back from the IR to SQL text.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ast;
pub mod catalog;
pub mod lower;
pub mod parser;
pub mod render;

pub use ast::{ColRef, CreateTable, SelectItem, SelectStmt, SqlStatement, TableRef};
pub use catalog::Catalog;
pub use lower::{lower_select, LoweredQuery};
pub use parser::parse_sql;
pub use render::{render_aggregate, render_cq};
