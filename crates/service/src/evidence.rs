//! Machine-checkable evidence carried by [`crate::Verdict`]s.
//!
//! A decision procedure's answer is only as trustworthy as the search that
//! produced it; the Solver therefore attaches, to every verdict, the
//! *certificate* the paper's theorems say must exist:
//!
//! * equivalence under set semantics — containment mappings in **both**
//!   directions between the sound-chased queries (Theorem 2.2 reduces
//!   `≡_{Σ,S}` to `≡_S` of the terminals, which is Chandra–Merlin \[2\]);
//! * equivalence under bag / bag-set semantics — the witnessing
//!   **isomorphism bijection** between the normalized terminals
//!   (Theorems 6.1/6.2 via Theorems 2.1/4.2);
//! * non-equivalence — where the (sound, incomplete) search finds one, a
//!   **separating database** `D ⊨ Σ` on which the answers differ;
//! * containment — the witnessing containment mapping; bag containment —
//!   the multiset-onto mapping of Appendix D;
//! * non-minimality — the identified-and-reduced query of Definition 3.1.
//!
//! Each certificate type has a `verify` method that *replays* the evidence
//! against the original inputs — applying the homomorphism atom by atom,
//! re-evaluating both queries on the counterexample instance, re-checking
//! `D ⊨ Σ` — without re-running any search. The randomized Solver suite
//! calls these on every verdict it draws, which is what keeps the evidence
//! real rather than decorative.

use eqsql_core::counterexample::check_separating;
use eqsql_cq::{is_containment_mapping, is_isomorphism, CqQuery, Subst, Var};
use eqsql_deps::satisfaction::{db_satisfies, db_satisfies_all};
use eqsql_deps::{Dependency, DependencySet};
use eqsql_relalg::eval::eval;
use eqsql_relalg::{Database, Schema, Semantics};
use std::collections::HashMap;
use std::fmt;

/// A certificate that failed to replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CertificateError {
    /// What the replay found wrong.
    pub reason: String,
}

impl fmt::Display for CertificateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "certificate replay failed: {}", self.reason)
    }
}

impl std::error::Error for CertificateError {}

fn fail(reason: impl Into<String>) -> Result<(), CertificateError> {
    Err(CertificateError { reason: reason.into() })
}

/// Evidence that two queries are Σ-equivalent, expressed over their
/// sound-chase terminals.
#[derive(Clone, Debug)]
pub enum EquivalenceCertificate {
    /// Both chases failed: both queries are unsatisfiable under Σ (empty
    /// on every `D ⊨ Σ`), hence trivially equivalent.
    BothUnsatisfiable,
    /// Set semantics: Chandra–Merlin containment mappings both ways
    /// between the chased queries.
    Set {
        /// `(Q1)_{Σ,S}`.
        chased1: CqQuery,
        /// `(Q2)_{Σ,S}`.
        chased2: CqQuery,
        /// Containment mapping from `chased2` into `chased1`, witnessing
        /// `chased1 ⊑_S chased2`.
        forward: Subst,
        /// Containment mapping from `chased1` into `chased2`, witnessing
        /// `chased2 ⊑_S chased1`.
        backward: Subst,
    },
    /// Bag or bag-set semantics: the witnessing isomorphism between the
    /// normalized terminals (set-valued duplicates dropped under bag
    /// semantics, all duplicates under bag-set — Theorems 4.2 / 2.1(2)).
    Iso {
        /// The normalized terminal of `Q1`.
        normal1: CqQuery,
        /// The normalized terminal of `Q2`.
        normal2: CqQuery,
        /// Bijection from `normal1`'s variables onto `normal2`'s.
        bijection: HashMap<Var, Var>,
    },
}

impl EquivalenceCertificate {
    /// Replays the certificate: every homomorphism is re-checked atom by
    /// atom against the queries it claims to relate. Does **not** re-run
    /// the chase — the chased queries are part of the certificate, and
    /// their relationship to the inputs is the chase engine's own
    /// (differentially tested) contract.
    pub fn verify(&self) -> Result<(), CertificateError> {
        match self {
            EquivalenceCertificate::BothUnsatisfiable => Ok(()),
            EquivalenceCertificate::Set { chased1, chased2, forward, backward } => {
                if !is_containment_mapping(chased2, chased1, forward) {
                    return fail("forward witness is not a containment mapping (Q2c -> Q1c)");
                }
                if !is_containment_mapping(chased1, chased2, backward) {
                    return fail("backward witness is not a containment mapping (Q1c -> Q2c)");
                }
                Ok(())
            }
            EquivalenceCertificate::Iso { normal1, normal2, bijection } => {
                if !is_isomorphism(normal1, normal2, bijection) {
                    return fail("bijection does not carry normal1 onto normal2");
                }
                Ok(())
            }
        }
    }
}

/// A separating database: `D ⊨ Σ` on which the two queries answer
/// differently under the recorded semantics.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The witness instance.
    pub db: Database,
    /// The semantics under which the answers differ.
    pub sem: Semantics,
}

impl Counterexample {
    /// Replays the counterexample: `db ⊨ Σ`, `db` is admissible for the
    /// semantics (set-valued where required), and evaluating `q1` and `q2`
    /// on it really yields different answers — the check
    /// ([`check_separating`]) the witness search accepted it by.
    pub fn verify(
        &self,
        q1: &CqQuery,
        q2: &CqQuery,
        sigma: &DependencySet,
        schema: &Schema,
    ) -> Result<(), CertificateError> {
        check_separating(&self.db, self.sem, q1, q2, sigma, schema).or_else(fail)
    }

    /// Replays a **set-containment** gap: `db ⊨ Σ` and some answer of `q1`
    /// on `db` (set semantics) is not an answer of `q2` — so `q1 ⋢_{Σ,S}
    /// q2`. Mere inequality of the answers is *not* enough here (extra
    /// `q2` answers would not contradict containment).
    pub fn verify_set_gap(
        &self,
        q1: &CqQuery,
        q2: &CqQuery,
        sigma: &DependencySet,
    ) -> Result<(), CertificateError> {
        if !db_satisfies_all(&self.db, sigma) {
            return fail("witness database does not satisfy Σ");
        }
        match (eval(q1, &self.db, Semantics::Set), eval(q2, &self.db, Semantics::Set)) {
            (Ok(a), Ok(b)) => {
                if a.iter().any(|(t, _)| b.multiplicity(t) == 0) {
                    Ok(())
                } else {
                    fail("every q1 answer on the witness is also a q2 answer")
                }
            }
            _ => fail("queries could not be evaluated on the witness database"),
        }
    }

    /// Replays a **bag-containment** gap: `db ⊨ Σ`, `db` keeps the
    /// schema's set-valued relations set-valued, and some tuple's
    /// `q1`-multiplicity on `db` exceeds its `q2`-multiplicity — so
    /// `q1 ⋢_{Σ,B} q2`.
    pub fn verify_bag_gap(
        &self,
        q1: &CqQuery,
        q2: &CqQuery,
        sigma: &DependencySet,
        schema: &Schema,
    ) -> Result<(), CertificateError> {
        if !db_satisfies_all(&self.db, sigma) {
            return fail("witness database does not satisfy Σ");
        }
        if !self.db.are_set_valued(&schema.set_valued_relations()) {
            return fail("witness database violates the schema's set-valuedness flags");
        }
        let a = eqsql_relalg::eval::eval_bag(q1, &self.db);
        let b = eqsql_relalg::eval::eval_bag(q2, &self.db);
        if a.iter().any(|(t, m)| b.multiplicity(t) < m) {
            Ok(())
        } else {
            fail("no tuple has a q1-multiplicity exceeding its q2-multiplicity")
        }
    }
}

/// A counterexample to `Σ ⊨ σ`: a concrete instance that satisfies every
/// dependency of Σ but violates σ. Carried on [`crate::Answer::NotImplied`]
/// so the implication verb has a replayable certificate like every other
/// verb family — the instance is the canonical database of the chased
/// premise (the chase terminal satisfies Σ; the failed conclusion check
/// means σ's conclusion has no extension over it).
#[derive(Clone, Debug)]
pub struct ImplicationCounterexample {
    /// The witness instance.
    pub db: Database,
}

impl ImplicationCounterexample {
    /// Replays the counterexample: `db ⊨ Σ` and `db ⊭ dep`, checked by
    /// direct dependency evaluation on the instance — no chase is re-run.
    pub fn verify(&self, dep: &Dependency, sigma: &DependencySet) -> Result<(), CertificateError> {
        if !db_satisfies_all(&self.db, sigma) {
            return fail("implication witness does not satisfy Σ");
        }
        if db_satisfies(&self.db, dep) {
            return fail("implication witness satisfies the dependency it should violate");
        }
        Ok(())
    }
}

/// Evidence for a set-containment verdict `q1 ⊑_{Σ,S} q2`.
#[derive(Clone, Debug)]
pub enum ContainmentCertificate {
    /// `q1`'s chase failed: it is empty under Σ, contained in anything.
    EmptyLeft,
    /// The Chandra–Merlin witness: a containment mapping from `q2` into
    /// `(q1)_{Σ,S}` (chasing `q1` preserves its answers on `D ⊨ Σ`).
    Mapping {
        /// `(Q1)_{Σ,S}`.
        chased1: CqQuery,
        /// The witnessing containment mapping `q2 -> chased1`.
        witness: Subst,
    },
}

impl ContainmentCertificate {
    /// Replays the witness mapping against `q2` and the chased `q1`.
    pub fn verify(&self, q2: &CqQuery) -> Result<(), CertificateError> {
        match self {
            ContainmentCertificate::EmptyLeft => Ok(()),
            ContainmentCertificate::Mapping { chased1, witness } => {
                if !is_containment_mapping(q2, chased1, witness) {
                    return fail("witness is not a containment mapping q2 -> (q1)_{Σ,S}");
                }
                Ok(())
            }
        }
    }
}

/// Evidence for a bag-containment verdict (the three-valued procedure of
/// Theorem 4.2 / Appendix D).
#[derive(Clone, Debug)]
pub enum BagContainmentCertificate {
    /// `q1`'s sound bag chase failed: empty under Σ, contained in
    /// anything.
    EmptyLeft,
    /// The sufficient condition: a containment mapping from the chased
    /// `q2` onto the chased `q1` covering its body as a multiset.
    OntoMapping {
        /// `(Q1)_{Σ,B}`.
        chased1: CqQuery,
        /// `(Q2)_{Σ,B}`.
        chased2: CqQuery,
        /// The multiset-onto witness `chased2 -> chased1`.
        witness: Subst,
    },
}

impl BagContainmentCertificate {
    /// Replays the multiset-onto property of the witness.
    pub fn verify(&self) -> Result<(), CertificateError> {
        match self {
            BagContainmentCertificate::EmptyLeft => Ok(()),
            BagContainmentCertificate::OntoMapping { chased1, chased2, witness } => {
                if !eqsql_core::bag_containment::is_multiset_onto_mapping(chased1, chased2, witness)
                {
                    return fail("witness is not a multiset-onto containment mapping");
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqsql_cq::parse_query;
    use eqsql_deps::parse_dependencies;

    #[test]
    fn tampered_set_certificate_is_rejected() {
        let q1 = parse_query("q(X) :- p(X,Y)").unwrap();
        let q2 = parse_query("q(A) :- p(A,B)").unwrap();
        let forward = eqsql_cq::containment_mapping(&q2, &q1).unwrap();
        let backward = eqsql_cq::containment_mapping(&q1, &q2).unwrap();
        let good = EquivalenceCertificate::Set {
            chased1: q1.clone(),
            chased2: q2.clone(),
            forward,
            backward: backward.clone(),
        };
        assert!(good.verify().is_ok());
        // Swap the directions: the replay must notice.
        let bad = EquivalenceCertificate::Set {
            chased1: q1,
            chased2: q2,
            forward: backward.clone(),
            backward,
        };
        assert!(bad.verify().is_err());
    }

    #[test]
    fn implication_counterexample_replays_both_conditions() {
        let sigma = parse_dependencies("a(X) -> b(X).").unwrap();
        let dep = parse_dependencies("b(X) -> a(X).").unwrap().iter().next().unwrap().clone();
        // b(1) alone satisfies Σ (no a-tuple to fire on) but violates σ.
        let mut db = Database::new();
        db.insert("b", eqsql_relalg::Tuple::ints([1]), 1);
        let cex = ImplicationCounterexample { db };
        assert!(cex.verify(&dep, &sigma).is_ok());
        // a(1) alone violates Σ itself: rejected as a witness.
        let mut bad = Database::new();
        bad.insert("a", eqsql_relalg::Tuple::ints([1]), 1);
        assert!(ImplicationCounterexample { db: bad }.verify(&dep, &sigma).is_err());
        // {a(1), b(1)} satisfies both Σ and σ: not a counterexample.
        let mut sat = Database::new();
        sat.insert("a", eqsql_relalg::Tuple::ints([1]), 1);
        sat.insert("b", eqsql_relalg::Tuple::ints([1]), 1);
        assert!(ImplicationCounterexample { db: sat }.verify(&dep, &sigma).is_err());
    }

    #[test]
    fn counterexample_must_satisfy_sigma_and_separate() {
        let sigma = parse_dependencies("a(X) -> b(X).").unwrap();
        let schema = Schema::all_bags(&[("a", 1), ("b", 1)]);
        let qa = parse_query("q(X) :- a(X)").unwrap();
        let qab = parse_query("q(X) :- b(X)").unwrap();
        // b(1) alone satisfies Σ and separates: qa empty, qab = {1}.
        let mut db = Database::new();
        db.insert("b", eqsql_relalg::Tuple::ints([1]), 1);
        let cex = Counterexample { db, sem: Semantics::Set };
        assert!(cex.verify(&qa, &qab, &sigma, &schema).is_ok());
        // a(1) alone violates Σ: rejected even though the answers differ.
        let mut bad = Database::new();
        bad.insert("a", eqsql_relalg::Tuple::ints([1]), 1);
        let cex = Counterexample { db: bad, sem: Semantics::Set };
        assert!(cex.verify(&qa, &qab, &sigma, &schema).is_err());
    }
}
