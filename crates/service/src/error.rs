//! The unified error taxonomy of the serving layer.
//!
//! Every failure a [`crate::Solver`] can surface is one of the variants
//! here, regardless of which crate it originated in: the per-crate error
//! types ([`ChaseError`], [`CnbError`], [`crate::RequestParseError`], the
//! parser errors of `eqsql-cq`/`eqsql-deps`) convert losslessly at the
//! boundary. Callers branch on *kind*, not provenance:
//!
//! * [`Error::Parse`] — an input (query, dependency, request file) failed
//!   to parse;
//! * [`Error::BudgetExhausted`] / [`Error::QueryTooLarge`] /
//!   [`Error::PlanTooLarge`] — a resource budget ran out, so the decision
//!   procedure is inconclusive (the paper's results hold "whenever
//!   set-chase terminates");
//! * [`Error::EgdFailure`] — an egd equated two distinct constants where
//!   failure is not itself a verdict (an unrepairable database instance;
//!   for *query* chases a failed chase means the query is unsatisfiable
//!   under Σ and flows into verdicts, never into this error);
//! * [`Error::UnsupportedSemantics`] — the requested decision procedure
//!   is not defined under the requested semantics (e.g. Chandra–Merlin
//!   containment under bag semantics, which is a long-standing open
//!   problem reached through `Request::BagContained` instead);
//! * [`Error::DeadlineExceeded`] / [`Error::Cancelled`] — the run was
//!   abandoned (wall-clock deadline, cancellation token). **Transient**:
//!   unlike `BudgetExhausted`, these say nothing about the input and are
//!   never cached — retrying the identical request may succeed;
//! * [`Error::Shed`] — the request was turned away at admission by a
//!   saturated batch queue; no work was done on it;
//! * [`Error::Internal`] — the decision panicked and was isolated; a
//!   defect report, never a statement about the input.

use eqsql_chase::ChaseError;
use eqsql_core::CnbError;
use eqsql_relalg::Semantics;
use std::fmt;

/// A serving-layer failure. See the module docs for the taxonomy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Error {
    /// An input failed to parse.
    Parse {
        /// 1-based line in the originating request file, `0` when the
        /// input was not line-addressed (an API-level query string).
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// The chase step budget ran out — Σ may not be weakly acyclic, or
    /// the budget is too small for this input.
    BudgetExhausted {
        /// Steps taken before giving up.
        steps: usize,
    },
    /// A chased query grew past the atom budget.
    QueryTooLarge {
        /// Number of atoms reached.
        atoms: usize,
    },
    /// A C&B universal plan is too large to backchase.
    PlanTooLarge {
        /// Universal-plan atom count.
        atoms: usize,
    },
    /// An egd equated two distinct constants while repairing a database
    /// instance: the instance admits no model of Σ.
    EgdFailure {
        /// The operation that hit the failure (e.g. `"chase-instance"`).
        operation: &'static str,
    },
    /// The decision procedure named by `operation` is not defined under
    /// `sem`.
    UnsupportedSemantics {
        /// The requested operation.
        operation: &'static str,
        /// The semantics it was requested under.
        sem: Semantics,
    },
    /// The request's wall-clock deadline passed before the decision
    /// finished. Transient — never cached; the identical request may
    /// succeed on retry.
    DeadlineExceeded {
        /// Chase steps taken before the deadline was observed.
        steps: usize,
    },
    /// The request's cancellation token was set before the decision
    /// finished. Transient — never cached.
    Cancelled {
        /// Chase steps taken before cancellation was observed.
        steps: usize,
    },
    /// The request was shed at admission: the batch's bounded queue was
    /// at capacity and the shed policy turned this request away before
    /// any work was done on it.
    Shed {
        /// The admission queue's capacity at the time.
        capacity: usize,
    },
    /// The decision panicked; the panic was isolated to this verdict and
    /// the rest of the batch completed. A defect report about the
    /// service, never a statement about the input.
    Internal {
        /// The panic message, best effort.
        message: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse { line: 0, message } => write!(f, "parse error: {message}"),
            Error::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            Error::BudgetExhausted { steps } => {
                write!(f, "chase did not terminate within {steps} steps")
            }
            Error::QueryTooLarge { atoms } => {
                write!(f, "chased query grew past {atoms} atoms")
            }
            Error::PlanTooLarge { atoms } => {
                write!(f, "universal plan has {atoms} atoms; backchase would not finish")
            }
            Error::EgdFailure { operation } => {
                write!(f, "{operation}: egd equated two distinct constants")
            }
            Error::UnsupportedSemantics { operation, sem } => {
                write!(f, "{operation} is not defined under {sem} semantics")
            }
            Error::DeadlineExceeded { steps } => {
                write!(f, "deadline exceeded after {steps} chase steps")
            }
            Error::Cancelled { steps } => write!(f, "cancelled after {steps} chase steps"),
            Error::Shed { capacity } => {
                write!(f, "shed at admission: queue at capacity {capacity}")
            }
            Error::Internal { message } => write!(f, "internal error: {message}"),
        }
    }
}

impl std::error::Error for Error {}

impl Error {
    /// A whole-input parse error (no line number).
    pub fn parse(message: impl Into<String>) -> Error {
        Error::Parse { line: 0, message: message.into() }
    }

    /// An [`Error::Internal`] defect report.
    pub fn internal(message: impl Into<String>) -> Error {
        Error::Internal { message: message.into() }
    }

    /// Is this a transient outcome of one particular run (deadline,
    /// cancellation, shedding, an isolated panic) rather than a stable
    /// fact about the request? Transient errors are never cached and may
    /// clear on retry.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            Error::DeadlineExceeded { .. }
                | Error::Cancelled { .. }
                | Error::Shed { .. }
                | Error::Internal { .. }
        )
    }

    /// Stable `(outcome, terminal)` labels of this error, as rendered in a
    /// [`crate::RequestRecord`]'s line — the `eqsql_net` verdict line and
    /// the trace line alike. The terminal separates "decided negatively"
    /// (`error`) from the transient ways a request dies (`deadline`,
    /// `cancelled`, `shed`, `panic`).
    pub fn labels(&self) -> (&'static str, &'static str) {
        match self {
            Error::Parse { .. } => ("parse-error", "error"),
            Error::BudgetExhausted { .. } => ("budget-exhausted", "error"),
            Error::QueryTooLarge { .. } => ("query-too-large", "error"),
            Error::PlanTooLarge { .. } => ("plan-too-large", "error"),
            Error::EgdFailure { .. } => ("egd-failure", "error"),
            Error::UnsupportedSemantics { .. } => ("unsupported-semantics", "error"),
            Error::DeadlineExceeded { .. } => ("deadline-exceeded", "deadline"),
            Error::Cancelled { .. } => ("cancelled", "cancelled"),
            Error::Shed { .. } => ("shed", "shed"),
            Error::Internal { .. } => ("internal", "panic"),
        }
    }

    /// The underlying [`ChaseError`], for callers (the legacy
    /// `EquivOutcome::Unknown` surface) that still speak the chase
    /// crate's vocabulary. `None` for the variants with no chase-level
    /// counterpart.
    pub fn as_chase_error(&self) -> Option<ChaseError> {
        match self {
            Error::BudgetExhausted { steps } => Some(ChaseError::BudgetExhausted { steps: *steps }),
            Error::QueryTooLarge { atoms } => Some(ChaseError::QueryTooLarge { atoms: *atoms }),
            Error::DeadlineExceeded { steps } => {
                Some(ChaseError::DeadlineExceeded { steps: *steps })
            }
            Error::Cancelled { steps } => Some(ChaseError::Cancelled { steps: *steps }),
            _ => None,
        }
    }
}

impl From<ChaseError> for Error {
    fn from(e: ChaseError) -> Error {
        match e {
            ChaseError::BudgetExhausted { steps } => Error::BudgetExhausted { steps },
            ChaseError::QueryTooLarge { atoms } => Error::QueryTooLarge { atoms },
            ChaseError::DeadlineExceeded { steps } => Error::DeadlineExceeded { steps },
            ChaseError::Cancelled { steps } => Error::Cancelled { steps },
        }
    }
}

impl From<CnbError> for Error {
    fn from(e: CnbError) -> Error {
        match e {
            CnbError::Chase(e) => e.into(),
            CnbError::PlanTooLarge { atoms } => Error::PlanTooLarge { atoms },
        }
    }
}

impl From<crate::request::RequestParseError> for Error {
    fn from(e: crate::request::RequestParseError) -> Error {
        Error::Parse { line: e.line, message: e.message }
    }
}

impl From<eqsql_cq::ParseError> for Error {
    fn from(e: eqsql_cq::ParseError) -> Error {
        Error::parse(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chase_errors_map_onto_the_taxonomy() {
        assert_eq!(
            Error::from(ChaseError::BudgetExhausted { steps: 7 }),
            Error::BudgetExhausted { steps: 7 }
        );
        assert_eq!(
            Error::from(ChaseError::QueryTooLarge { atoms: 9 }),
            Error::QueryTooLarge { atoms: 9 }
        );
        assert_eq!(
            Error::from(CnbError::PlanTooLarge { atoms: 33 }),
            Error::PlanTooLarge { atoms: 33 }
        );
        assert_eq!(
            Error::from(CnbError::Chase(ChaseError::BudgetExhausted { steps: 3 })),
            Error::BudgetExhausted { steps: 3 }
        );
    }

    #[test]
    fn round_trip_to_chase_error() {
        let e = Error::BudgetExhausted { steps: 5 };
        assert_eq!(e.as_chase_error(), Some(ChaseError::BudgetExhausted { steps: 5 }));
        assert_eq!(Error::parse("nope").as_chase_error(), None);
        assert_eq!(
            Error::UnsupportedSemantics { operation: "containment", sem: Semantics::Bag }
                .as_chase_error(),
            None
        );
    }

    #[test]
    fn display_is_informative() {
        assert!(Error::parse("bad token").to_string().contains("bad token"));
        assert!(Error::Parse { line: 4, message: "x".into() }.to_string().contains("line 4"));
        assert!(Error::EgdFailure { operation: "chase-instance" }
            .to_string()
            .contains("chase-instance"));
        assert!(Error::UnsupportedSemantics { operation: "containment", sem: Semantics::Bag }
            .to_string()
            .contains("B semantics"));
    }
}
