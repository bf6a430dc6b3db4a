//! # eqsql-core — query equivalence and reformulation under dependencies
//!
//! The primary contribution of Chirkova & Genesereth (PODS 2009),
//! implemented on top of the `eqsql-cq`/`eqsql-deps`/`eqsql-chase`
//! substrates:
//!
//! * **dependency-free equivalence tests** ([`equiv`]): Chandra–Merlin set
//!   containment/equivalence \[2\], the bag (≅) and bag-set (canonical ≅)
//!   tests of Chaudhuri & Vardi \[4\] (Theorem 2.1), and the paper's
//!   *extended* bag test for schemas with set-enforced relations
//!   (Theorem 4.2);
//! * **Σ-equivalence tests** ([`sigma_equiv`]): Theorem 2.2 for set
//!   semantics, and the paper's Theorems 6.1/6.2 for bag and bag-set
//!   semantics via the sound chase;
//! * **aggregate-query equivalence** ([`aggregate`]): Theorems 2.3/6.3;
//! * **Σ-minimality** (Definition 3.1) and set-semantics query
//!   minimization ([`minimality`]);
//! * the **Chase & Backchase family** ([`mod@cnb`]): `C&B` (Appendix A),
//!   `Bag-C&B`, `Bag-Set-C&B`, `Max-Min-C&B`, `Sum-Count-C&B` (§6.3) —
//!   sound and complete whenever set-chase terminates (Theorems 6.4, K.1,
//!   K.2);
//! * **counterexample construction** ([`counterexample`]): witness
//!   databases separating non-equivalent queries, using canonical
//!   databases of associated test queries (Theorem 4.1's proof) and the
//!   m-copy amplification of Lemma D.1;
//! * the **Query-Reformulation Problem** API ([`problem`], §3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aggregate;
pub mod bag_containment;
pub mod cnb;
pub mod counterexample;
pub mod equiv;
pub mod minimality;
pub mod problem;
pub mod sigma_equiv;
pub mod views;

#[allow(deprecated)]
pub use cnb::cnb;
pub use cnb::{cnb_via, CnbError, CnbOptions, CnbResult};
pub use eqsql_relalg::Semantics;
pub use equiv::{
    bag_equivalent, bag_equivalent_with_set_relations, bag_set_equivalent, set_contained,
    set_equivalent,
};
#[allow(deprecated)]
pub use minimality::is_sigma_minimal;
pub use minimality::{
    core_of, is_sigma_minimal_via, sigma_minimality_witness_via, MinimalityWitness,
};
pub use problem::{ReformulationProblem, Solutions};
#[allow(deprecated)]
pub use sigma_equiv::{sigma_equivalent, sigma_set_contained};
pub use sigma_equiv::{
    sigma_equivalent_via, sigma_set_contained_via, DirectChaser, EquivOutcome, SoundChaser,
};
