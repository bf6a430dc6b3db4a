//! # eqsql-cq — conjunctive-query intermediate representation
//!
//! This crate is the symbolic substrate of the `eqsql` workspace, which
//! implements Chirkova & Genesereth, *"Equivalence of SQL Queries in Presence
//! of Embedded Dependencies"* (PODS 2009).
//!
//! It provides:
//!
//! * interned [`Symbol`]s, [`Var`]iables, constant [`Value`]s and [`Term`]s;
//! * relational [`Atom`]s and safe conjunctive queries ([`CqQuery`], §2.1 of
//!   the paper) whose bodies are **multisets** of atoms — duplicate subgoals
//!   are semantically significant under bag and bag-set semantics;
//! * aggregate queries ([`AggregateQuery`], §2.5);
//! * the flat per-run [`arena`] — `u32`-interned terms and columnar
//!   predicate tables ([`TermArena`], [`ArenaPlan`]) — that the chase
//!   engine's hot path runs on, allocation-free per step;
//! * [`Subst`]itutions and homomorphism machinery: the planned,
//!   trail-based [`matcher`] (compiled [`matcher::MatchPlan`]s for
//!   one-shot searches over boxed atoms, and the naive
//!   [`matcher::reference`] oracle) and [`hom`]'s containment mappings
//!   (Chandra–Merlin) over it;
//! * query [`iso`]morphism — the bag-equivalence test of Chaudhuri & Vardi
//!   (Theorem 2.1 of the paper) — and canonical representations;
//! * a datalog-style [`parser`] and matching [`std::fmt::Display`]
//!   implementations, plus a reusable [`lex`]er shared with the dependency
//!   and SQL frontends.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aggregate;
pub mod arena;
pub mod atom;
pub mod hom;
pub mod iso;
pub mod lex;
pub mod matcher;
pub mod parser;
pub mod query;
pub mod subst;
pub mod symbol;
pub mod term;
pub mod value;

pub use aggregate::{AggFn, AggregateQuery};
pub use arena::{ArenaFrame, ArenaPlan, ColumnTable, EqOp, SeedMap, TermArena, TermId};
pub use atom::{Atom, Predicate};
pub use hom::{containment_mapping, is_containment_mapping};
pub use iso::{are_isomorphic, canonical_representation, find_isomorphism, is_isomorphism};
pub use matcher::{bucket_atoms, Buckets, Match, MatchPlan, Seed, Target};
pub use parser::{parse_program, parse_query, ParseError};
pub use query::{CqQuery, VarSupply};
pub use subst::Subst;
pub use symbol::Symbol;
pub use term::{Term, Var};
pub use value::{Value, R64};
