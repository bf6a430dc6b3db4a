//! The Chase & Backchase family (Appendix A and §6.3 of the paper).
//!
//! `C&B` (Deutsch, Popa & Tannen \[11\]) finds all Σ-minimal conjunctive
//! reformulations of a CQ query under set semantics: chase the query to its
//! **universal plan** `U = (Q)_{Σ,S}`, then *backchase* — test every
//! subquery of `U` for Σ-equivalence with `Q`.
//!
//! The paper's extensions replace both phases:
//!
//! * `Bag-C&B` uses the **sound bag chase** for the universal plan and the
//!   Theorem 6.1 equivalence test (Theorem 6.4: sound and complete when
//!   set-chase terminates);
//! * `Bag-Set-C&B` uses the sound bag-set chase and the Theorem 6.2 test
//!   (Theorem K.1).
//!
//! Both are obtained here by parameterizing one driver on
//! [`Semantics`].

use crate::minimality::is_sigma_minimal_via;
use crate::sigma_equiv::{sigma_equivalent_via, DirectChaser, EquivOutcome, SoundChaser};
use eqsql_chase::{ChaseConfig, ChaseError};
use eqsql_cq::{are_isomorphic, CqQuery};
use eqsql_deps::DependencySet;
use eqsql_relalg::{Schema, Semantics};
use std::fmt;

/// Options for the backchase enumeration.
#[derive(Clone, Debug)]
pub struct CnbOptions {
    /// Hard cap on universal-plan size (the backchase enumerates up to
    /// `2^n` subqueries).
    pub max_plan_atoms: usize,
    /// Filter outputs through the Σ-minimality test of Definition 3.1
    /// (subset-minimality within the plan always holds).
    pub require_sigma_minimal: bool,
}

impl Default for CnbOptions {
    fn default() -> Self {
        CnbOptions { max_plan_atoms: 16, require_sigma_minimal: true }
    }
}

/// A C&B failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CnbError {
    /// Chase failure/budget.
    Chase(ChaseError),
    /// The universal plan is too large to backchase.
    PlanTooLarge {
        /// Universal-plan atom count.
        atoms: usize,
    },
}

impl fmt::Display for CnbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CnbError::Chase(e) => write!(f, "{e}"),
            CnbError::PlanTooLarge { atoms } => {
                write!(f, "universal plan has {atoms} atoms; backchase would not finish")
            }
        }
    }
}

impl std::error::Error for CnbError {}

impl From<ChaseError> for CnbError {
    fn from(e: ChaseError) -> Self {
        CnbError::Chase(e)
    }
}

/// The result of a C&B run.
#[derive(Clone, Debug)]
pub struct CnbResult {
    /// The universal plan `(Q)_{Σ,sem}`.
    pub universal_plan: CqQuery,
    /// All Σ-minimal reformulations found (pairwise non-isomorphic, sorted
    /// by body size). Includes (a query isomorphic to) the input whenever
    /// the input is itself Σ-minimal.
    pub reformulations: Vec<CqQuery>,
    /// Number of candidate subqueries tested.
    pub candidates_tested: usize,
}

/// Runs C&B / Bag-C&B / Bag-Set-C&B depending on `sem` (Appendix A;
/// §6.3; Theorems A.1, 6.4, K.1).
#[deprecated(
    since = "0.2.0",
    note = "construct an `eqsql_service::Solver` and decide `Request::Reformulate` — \
            the Solver shares one chase cache across the whole backchase; \
            the parameterized engine entry point is `cnb_via`"
)]
pub fn cnb(
    sem: Semantics,
    q: &CqQuery,
    sigma: &DependencySet,
    schema: &Schema,
    config: &ChaseConfig,
    opts: &CnbOptions,
) -> Result<CnbResult, CnbError> {
    cnb_via(&DirectChaser, sem, q, sigma, schema, config, opts)
}

/// [`cnb`] with every chase routed through `chaser`.
///
/// The backchase re-chases `q` once per candidate subquery and chases many
/// structurally identical candidates; a memoizing chaser (the
/// `eqsql_service` cache) turns that quadratic re-chasing into hash
/// lookups, which is the C&B-family speedup the batched equivalence
/// service is built around.
pub fn cnb_via<C: SoundChaser + ?Sized>(
    chaser: &C,
    sem: Semantics,
    q: &CqQuery,
    sigma: &DependencySet,
    schema: &Schema,
    config: &ChaseConfig,
    opts: &CnbOptions,
) -> Result<CnbResult, CnbError> {
    let chased = chaser.sound_chase(sem, q, sigma, schema, config)?;
    if chased.failed {
        // Q is unsatisfiable under Σ; it has no satisfiable reformulations.
        return Ok(CnbResult {
            universal_plan: chased.query,
            reformulations: Vec::new(),
            candidates_tested: 0,
        });
    }
    let u = chased.query;
    let n = u.body.len();
    if n > opts.max_plan_atoms {
        return Err(CnbError::PlanTooLarge { atoms: n });
    }

    // Enumerate nonempty subsets of the plan body, ascending by size, so
    // that subset-minimality is a simple superset check.
    let mut masks: Vec<u32> = (1u32..(1u32 << n)).collect();
    masks.sort_by_key(|m| m.count_ones());

    let mut accepted_masks: Vec<u32> = Vec::new();
    let mut out: Vec<CqQuery> = Vec::new();
    let mut tested = 0usize;
    for mask in masks {
        if accepted_masks.iter().any(|a| mask & a == *a) {
            continue; // proper superset of an accepted reformulation
        }
        let body: Vec<_> =
            (0..n).filter(|i| mask & (1 << i) != 0).map(|i| u.body[i].clone()).collect();
        let candidate = CqQuery { name: q.name, head: u.head.clone(), body };
        if !candidate.is_safe() {
            continue;
        }
        tested += 1;
        match sigma_equivalent_via(chaser, sem, &candidate, q, sigma, schema, config) {
            EquivOutcome::Equivalent => {}
            EquivOutcome::NotEquivalent => continue,
            EquivOutcome::Unknown(e) => return Err(e.into()),
        }
        if opts.require_sigma_minimal
            && !is_sigma_minimal_via(chaser, &candidate, sigma, schema, sem, config)?
        {
            continue;
        }
        if out.iter().any(|r| are_isomorphic(r, &candidate)) {
            continue;
        }
        accepted_masks.push(mask);
        out.push(candidate);
    }
    out.sort_by_key(CqQuery::size);
    Ok(CnbResult { universal_plan: u, reformulations: out, candidates_tested: tested })
}

/// Renders a reformulation list for display/tests.
pub fn render_reformulations(r: &CnbResult) -> Vec<String> {
    r.reformulations.iter().map(|q| q.to_string()).collect()
}

/// Do the reformulations contain a query isomorphic to `q`?
pub fn contains_isomorph(result: &CnbResult, q: &CqQuery) -> bool {
    result.reformulations.iter().any(|r| are_isomorphic(r, q))
}

#[cfg(test)]
mod tests {
    // The deprecated convenience entry points stay the differential oracle
    // for the Solver suite; their own unit tests keep exercising them.
    #![allow(deprecated)]

    use super::*;
    use eqsql_cq::parse_query;
    use eqsql_deps::parse_dependencies;
    use std::collections::HashSet;

    fn cfg() -> ChaseConfig {
        ChaseConfig::default()
    }
    fn opts() -> CnbOptions {
        CnbOptions::default()
    }

    fn sigma_4_1() -> DependencySet {
        parse_dependencies(
            "p(X,Y) -> s(X,Z) & t(X,V,W).\n\
             p(X,Y) -> t(X,Y,W).\n\
             p(X,Y) -> r(X).\n\
             p(X,Y) -> u(X,Z) & t(X,Y,W).\n\
             s(X,Y) & s(X,Z) -> Y = Z.\n\
             t(X,Y,W1) & t(X,Y,W2) -> W1 = W2.",
        )
        .unwrap()
    }

    fn schema_4_1() -> Schema {
        let mut s = Schema::all_bags(&[("p", 2), ("r", 1), ("s", 2), ("t", 3), ("u", 2)]);
        s.mark_set_valued(eqsql_cq::Predicate::new("s"));
        s.mark_set_valued(eqsql_cq::Predicate::new("t"));
        s
    }

    #[test]
    fn set_cnb_on_example_4_1_finds_q4() {
        // Under set semantics, the minimal reformulation of Q1 is Q4.
        let q1 = parse_query("q1(X) :- p(X,Y), t(X,Y,W), s(X,Z), r(X), u(X,U)").unwrap();
        let r = cnb(Semantics::Set, &q1, &sigma_4_1(), &schema_4_1(), &cfg(), &opts()).unwrap();
        let q4 = parse_query("q4(X) :- p(X,Y)").unwrap();
        assert!(contains_isomorph(&r, &q4), "got {:?}", render_reformulations(&r));
        // Q4 is the unique Σ-minimal reformulation here.
        assert_eq!(r.reformulations.len(), 1, "got {:?}", render_reformulations(&r));
    }

    #[test]
    fn bag_cnb_on_example_4_1_q3_reduces_to_q4() {
        // Q3's t/s subgoals live on keyed set-valued relations, so the
        // sound bag chase re-adds them: Q3 ≡_{Σ,B} Q4 and Bag-C&B returns
        // exactly {Q4}.
        let q3 = parse_query("q3(X) :- p(X,Y), t(X,Y,W), s(X,Z)").unwrap();
        let r = cnb(Semantics::Bag, &q3, &sigma_4_1(), &schema_4_1(), &cfg(), &opts()).unwrap();
        let q4 = parse_query("q4(X) :- p(X,Y)").unwrap();
        assert!(contains_isomorph(&r, &q4), "got {:?}", render_reformulations(&r));
        assert_eq!(r.reformulations.len(), 1, "got {:?}", render_reformulations(&r));
    }

    #[test]
    fn bag_cnb_on_example_4_1_q1_keeps_bag_atoms() {
        // Q1 adds r/u subgoals over *bag-valued* relations. Under set
        // semantics Q1 reduces all the way to Q4; under bag semantics the
        // r/u atoms change multiplicities and must stay: the unique
        // Σ-minimal bag reformulation is q(X) :- p(X,Y), r(X), u(X,U).
        let q1 = parse_query("q1(X) :- p(X,Y), t(X,Y,W), s(X,Z), r(X), u(X,U)").unwrap();
        let r = cnb(Semantics::Bag, &q1, &sigma_4_1(), &schema_4_1(), &cfg(), &opts()).unwrap();
        let q_pru = parse_query("q(X) :- p(X,Y), r(X), u(X,U)").unwrap();
        assert!(contains_isomorph(&r, &q_pru), "got {:?}", render_reformulations(&r));
        let q4 = parse_query("q4(X) :- p(X,Y)").unwrap();
        assert!(!contains_isomorph(&r, &q4), "Q4 must NOT be bag-equivalent to Q1");
        assert_eq!(r.reformulations.len(), 1, "got {:?}", render_reformulations(&r));
    }

    #[test]
    fn bag_cnb_of_q4_returns_q4() {
        // Sound bag chase of Q4 is Q3; the minimal subquery equivalent to
        // Q4 is Q4 itself.
        let q4 = parse_query("q4(X) :- p(X,Y)").unwrap();
        let r = cnb(Semantics::Bag, &q4, &sigma_4_1(), &schema_4_1(), &cfg(), &opts()).unwrap();
        assert!(contains_isomorph(&r, &q4), "got {:?}", render_reformulations(&r));
        assert_eq!(r.reformulations.len(), 1);
    }

    #[test]
    fn bag_set_cnb_on_example_4_1() {
        // Under bag-set semantics, Q2 ≡_{Σ,BS} Q4: both should appear when
        // starting from Q2 (Q4 as the minimal one).
        let q2 = parse_query("q2(X) :- p(X,Y), t(X,Y,W), s(X,Z), r(X)").unwrap();
        let r = cnb(Semantics::BagSet, &q2, &sigma_4_1(), &schema_4_1(), &cfg(), &opts()).unwrap();
        let q4 = parse_query("q4(X) :- p(X,Y)").unwrap();
        assert!(contains_isomorph(&r, &q4), "got {:?}", render_reformulations(&r));
    }

    #[test]
    fn cnb_completeness_inclusion_chain() {
        // Σ: a(X) -> b(X), b(X) -> a(X): q(X) :- a(X) and q(X) :- b(X) are
        // both Σ-minimal reformulations of either, under all semantics.
        let sigma = parse_dependencies("a(X) -> b(X). b(X) -> a(X).").unwrap();
        let schema = Schema::all_bags(&[("a", 1), ("b", 1)]);
        let qa = parse_query("q(X) :- a(X)").unwrap();
        let qb = parse_query("q(X) :- b(X)").unwrap();
        for sem in [Semantics::Set, Semantics::BagSet] {
            let r = cnb(sem, &qa, &sigma, &schema, &cfg(), &opts()).unwrap();
            assert!(contains_isomorph(&r, &qa), "{sem}: {:?}", render_reformulations(&r));
            assert!(contains_isomorph(&r, &qb), "{sem}: {:?}", render_reformulations(&r));
            assert_eq!(r.reformulations.len(), 2);
        }
    }

    #[test]
    fn plan_too_large_is_reported() {
        let sigma = parse_dependencies(
            "p(X) -> a1(X). p(X) -> a2(X). p(X) -> a3(X). p(X) -> a4(X).\n\
             p(X) -> a5(X). p(X) -> a6(X). p(X) -> a7(X). p(X) -> a8(X).",
        )
        .unwrap();
        let schema = Schema::all_bags(&[("p", 1)]);
        let q = parse_query("q(X) :- p(X)").unwrap();
        let small = CnbOptions { max_plan_atoms: 4, ..CnbOptions::default() };
        let err = cnb(Semantics::Set, &q, &sigma, &schema, &cfg(), &small).unwrap_err();
        assert!(matches!(err, CnbError::PlanTooLarge { .. }));
    }

    #[test]
    fn no_dependencies_returns_core() {
        // Without Σ, C&B(set) is just minimization: the core.
        let q = parse_query("q(X) :- p(X,Y), p(X,Z)").unwrap();
        let r = cnb(
            Semantics::Set,
            &q,
            &DependencySet::new(),
            &Schema::all_bags(&[("p", 2)]),
            &cfg(),
            &opts(),
        )
        .unwrap();
        assert_eq!(r.reformulations.len(), 1);
        assert_eq!(r.reformulations[0].body.len(), 1);
    }

    #[test]
    fn unsatisfiable_query_yields_no_reformulations() {
        let sigma = parse_dependencies("s(X,Y) & s(X,Z) -> Y = Z.").unwrap();
        let schema = Schema::all_bags(&[("s", 2)]);
        let q = parse_query("q(X) :- s(X,1), s(X,2)").unwrap();
        let r = cnb(Semantics::Set, &q, &sigma, &schema, &cfg(), &opts()).unwrap();
        assert!(r.reformulations.is_empty());
    }

    #[test]
    fn candidate_count_is_reported() {
        let q = parse_query("q(X) :- p(X,Y)").unwrap();
        let r = cnb(
            Semantics::Set,
            &q,
            &DependencySet::new(),
            &Schema::all_bags(&[("p", 2)]),
            &cfg(),
            &opts(),
        )
        .unwrap();
        assert_eq!(r.candidates_tested, 1);
    }

    #[test]
    fn dedup_is_up_to_isomorphism() {
        // Universal plan with two interchangeable s-atoms must not yield
        // two isomorphic copies of the same reformulation.
        let sigma = parse_dependencies("p(X) -> s(X,Z).").unwrap();
        let schema = Schema::all_bags(&[("p", 1), ("s", 2)]);
        let q = parse_query("q(X) :- p(X), s(X,A), s(X,B)").unwrap();
        let r = cnb(Semantics::Set, &q, &sigma, &schema, &cfg(), &opts()).unwrap();
        let names: HashSet<String> = render_reformulations(&r).into_iter().collect();
        assert_eq!(names.len(), r.reformulations.len());
        for (i, a) in r.reformulations.iter().enumerate() {
            for b in r.reformulations.iter().skip(i + 1) {
                assert!(!are_isomorphic(a, b));
            }
        }
    }
}
