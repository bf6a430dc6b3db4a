//! The chase step trace: one typed record per committed step, rendered
//! only on demand.
//!
//! A chase commits thousands of steps per request — most of them inside
//! the nested test-query chases of the bag and bag-set admission test —
//! and almost nobody reads them. So a step is recorded as indices and
//! terms, never as text: the dependency's index in Σ, the body size after
//! the step, and what the step did. A tgd step's terms live in one flat
//! buffer per chase, so committing a step allocates nothing beyond the
//! amortized growth of two `Vec`s. [`ChaseTrace::render`] turns the
//! records back into the `[σi] dep — action (body now n)` lines, given the
//! Σ the chase ran on.

use eqsql_cq::{Subst, Term, Var};
use eqsql_deps::{DependencySet, Tgd};
use std::fmt;

/// What one trace record did.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum StepAction {
    /// A tgd step. `start..end` is its binding in the trace's term buffer
    /// ([`ChaseTrace::binding`]): the images of the premise variables, by
    /// first occurrence along the written lhs, then the minted
    /// existentials, in [`eqsql_deps::Tgd::existential_vars`] order.
    Tgd {
        /// First term of the binding.
        start: usize,
        /// One past its last term.
        end: usize,
    },
    /// An egd step: `from` was replaced by `to` throughout the query.
    Egd {
        /// The replaced variable.
        from: Var,
        /// Its replacement.
        to: Term,
    },
    /// An egd equated two distinct constants: the chase failed. This is
    /// not a step; it is always the trace's last record.
    Failed,
}

/// One trace record.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TraceEntry {
    /// Index of the dependency in Σ (in iteration order).
    pub dep_index: usize,
    /// Body size after the step.
    pub body_size: usize,
    /// What the step did.
    pub action: StepAction,
}

/// The step trace of one chase: a record per committed step, in firing
/// order, followed by a [`StepAction::Failed`] record when an egd equated
/// two distinct constants. A failed chase's trace is therefore one record
/// longer than its step count; every other trace has exactly one record
/// per step.
///
/// Records name terms, not text. Render them with [`ChaseTrace::render`]
/// against the Σ the chase ran on (for a sound chase, its
/// `sigma_regularized`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaseTrace {
    entries: Vec<TraceEntry>,
    terms: Vec<Term>,
}

impl ChaseTrace {
    /// The empty trace.
    pub fn new() -> ChaseTrace {
        ChaseTrace::default()
    }

    /// Number of records, including a trailing [`StepAction::Failed`].
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Does the trace hold no record?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The records, in firing order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// A tgd record's binding, laid out as [`StepAction::Tgd`] describes.
    /// Empty for egd and failure records.
    pub fn binding(&self, entry: &TraceEntry) -> &[Term] {
        match entry.action {
            StepAction::Tgd { start, end } => &self.terms[start..end],
            StepAction::Egd { .. } | StepAction::Failed => &[],
        }
    }

    /// Records a tgd step; `binding` holds the images of the tgd's
    /// [`binding_vars`], position for position.
    pub(crate) fn push_tgd(
        &mut self,
        dep_index: usize,
        body_size: usize,
        binding: impl IntoIterator<Item = Term>,
    ) {
        let start = self.terms.len();
        self.terms.extend(binding);
        let action = StepAction::Tgd { start, end: self.terms.len() };
        self.entries.push(TraceEntry { dep_index, body_size, action });
    }

    /// Records an egd step replacing `from` by `to`.
    pub(crate) fn push_egd(&mut self, dep_index: usize, body_size: usize, from: Var, to: Term) {
        let action = StepAction::Egd { from, to };
        self.entries.push(TraceEntry { dep_index, body_size, action });
    }

    /// Records the chase's failure.
    pub(crate) fn push_failed(&mut self, dep_index: usize, body_size: usize) {
        self.entries.push(TraceEntry { dep_index, body_size, action: StepAction::Failed });
    }

    /// One displayable line per record, `[σi] dep — action (body now n)`.
    /// `sigma` must be the Σ the chase ran on: the records index into it.
    ///
    /// # Panics
    ///
    /// Displaying a line panics when `sigma` has no dependency at the
    /// record's index, or holds an egd where the record names a tgd.
    pub fn render<'a>(
        &'a self,
        sigma: &'a DependencySet,
    ) -> impl Iterator<Item = RenderedStep<'a>> + 'a {
        self.entries.iter().map(move |entry| RenderedStep { trace: self, entry, sigma })
    }
}

/// The variables a tgd record binds, in record order: the premise
/// variables by first occurrence along the written lhs (the engine's
/// premise-plan slot order), then the existentials in
/// [`Tgd::existential_vars`] order.
pub(crate) fn binding_vars(tgd: &Tgd) -> Vec<Var> {
    let mut vars: Vec<Var> = Vec::new();
    for v in tgd.lhs.iter().flat_map(|a| a.vars()) {
        if !vars.contains(&v) {
            vars.push(v);
        }
    }
    vars.extend(tgd.existential_vars());
    vars
}

/// One record of a [`ChaseTrace`], displayable against its Σ.
pub struct RenderedStep<'a> {
    trace: &'a ChaseTrace,
    entry: &'a TraceEntry,
    sigma: &'a DependencySet,
}

impl fmt::Display for RenderedStep<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let TraceEntry { dep_index, body_size, action } = *self.entry;
        let dep = &self.sigma.as_slice()[dep_index];
        write!(f, "[σ{dep_index}] {dep} — ")?;
        match action {
            StepAction::Tgd { .. } => {
                let tgd = dep.as_tgd().expect("a tgd record names a tgd of Σ");
                let step = Subst::from_pairs(
                    binding_vars(tgd)
                        .into_iter()
                        .zip(self.trace.binding(self.entry).iter().copied()),
                );
                f.write_str("tgd: added ")?;
                for (k, atom) in step.apply_atoms(&tgd.rhs).iter().enumerate() {
                    if k > 0 {
                        f.write_str(" ∧ ")?;
                    }
                    write!(f, "{atom}")?;
                }
            }
            StepAction::Egd { from, to } => write!(f, "egd: {from} := {to}")?,
            StepAction::Failed => f.write_str("equated distinct constants: chase failed")?,
        }
        write!(f, " (body now {body_size})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqsql_deps::parse_dependencies;

    #[test]
    fn binding_vars_follow_premise_then_existentials() {
        let sigma = parse_dependencies("p(X,Y) & q(Y,X,U) -> s(W,U) & t(Z,W,X).").unwrap();
        let tgd = sigma.tgds().next().unwrap();
        let names: Vec<&str> = binding_vars(tgd).iter().map(|v| v.name()).collect();
        assert_eq!(names, ["X", "Y", "U", "W", "Z"]);
    }

    #[test]
    fn render_maps_the_binding_onto_the_conclusion() {
        let sigma = parse_dependencies("p(X,Y) -> s(X,Z). s(X,Y) & s(X,Z) -> Y = Z.").unwrap();
        let mut trace = ChaseTrace::new();
        trace.push_tgd(0, 2, [Term::var("A"), Term::var("B"), Term::var("Z_1")]);
        trace.push_egd(1, 2, Var::new("Z_1"), Term::int(3));
        trace.push_failed(1, 2);
        let lines: Vec<String> = trace.render(&sigma).map(|l| l.to_string()).collect();
        assert_eq!(
            lines,
            [
                "[σ0] p(X, Y) -> s(X, Z) — tgd: added s(A, Z_1) (body now 2)",
                "[σ1] s(X, Y) & s(X, Z) -> Y = Z — egd: Z_1 := 3 (body now 2)",
                "[σ1] s(X, Y) & s(X, Z) -> Y = Z — equated distinct constants: chase failed \
                 (body now 2)",
            ]
        );
        assert_eq!(trace.binding(&trace.entries()[0]).len(), 3);
        assert!(trace.binding(&trace.entries()[1]).is_empty());
    }
}
