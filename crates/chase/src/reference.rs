//! The naive restart-scan chase driver, kept as the differential-testing
//! oracle for the incremental engine ([`crate::engine`]).
//!
//! This is the seed implementation, preserved behaviorally: after every
//! step it restarts the Σ scan from σ₀, renames each scanned dependency
//! apart against a freshly recomputed variable set, materializes *all*
//! applicable homomorphisms before picking the first admissible one, and
//! re-canonicalizes the whole body through the dedup policy. Every one of
//! those per-step costs is what the engine amortizes; the two drivers fire
//! identical step sequences, which `tests/tests/engine_differential.rs`
//! and the engine's unit tests assert. Do not "optimize" this module — its
//! value is being obviously correct and independently derived.

use crate::error::{ChaseConfig, ChaseError};
use crate::set_chase::Chased;
use crate::step::{
    applicable_tgd_homs, apply_egd_step, apply_tgd_step, rename_dep_apart, DedupPolicy, EgdOutcome,
};
use crate::trace::{binding_vars, ChaseTrace};
use eqsql_cq::{CqQuery, Subst, Term, VarSupply};
use eqsql_deps::{Dependency, DependencySet};
use std::collections::HashSet;

/// [`crate::set_chase()`] on the naive driver.
pub fn set_chase_reference(
    q: &CqQuery,
    sigma: &DependencySet,
    config: &ChaseConfig,
) -> Result<Chased, ChaseError> {
    chase_with_policy_reference(q, sigma, config, &DedupPolicy::All, &mut |_, _, _| Ok(true))
}

/// [`crate::engine::chase_indexed`] with [`crate::Admission::Custom`] on
/// the naive driver: full Σ rescan per step, homomorphism sets
/// materialized up front. The predicate's first `Err` ends the chase with
/// that error, as in the engine.
pub fn chase_with_policy_reference(
    q: &CqQuery,
    sigma: &DependencySet,
    config: &ChaseConfig,
    dedup: &DedupPolicy,
    admit: &mut dyn FnMut(&eqsql_deps::Tgd, &CqQuery, &Subst) -> Result<bool, ChaseError>,
) -> Result<Chased, ChaseError> {
    let mut cur = dedup.apply(q);
    let mut supply = VarSupply::avoiding([q]);
    for d in sigma.iter() {
        for v in d.all_vars() {
            supply.record_var(v);
        }
    }
    let mut steps = 0usize;
    let mut renaming = Subst::new();
    let mut trace = ChaseTrace::new();

    'outer: loop {
        if steps >= config.max_steps {
            return Err(ChaseError::BudgetExhausted { steps });
        }
        if cur.body.len() >= config.max_atoms {
            return Err(ChaseError::QueryTooLarge { atoms: cur.body.len() });
        }
        let cur_vars: HashSet<_> = cur.all_vars().into_iter().collect();
        for (i, dep) in sigma.iter().enumerate() {
            let dep_r = rename_dep_apart(dep, &cur_vars, &mut supply);
            match &dep_r {
                Dependency::Egd(e) => match apply_egd_step(&cur, e) {
                    EgdOutcome::NotApplicable => {}
                    EgdOutcome::Failed => {
                        trace.push_failed(i, cur.body.len());
                        return Ok(Chased { query: cur, failed: true, steps, renaming, trace });
                    }
                    EgdOutcome::Applied { query, from, to } => {
                        renaming.rewrite(from, to);
                        cur = dedup.apply(&query);
                        steps += 1;
                        trace.push_egd(i, cur.body.len(), from, to);
                        continue 'outer;
                    }
                },
                Dependency::Tgd(t) => {
                    for h in applicable_tgd_homs(&cur, t) {
                        if !admit(t, &cur, &h)? {
                            continue;
                        }
                        let (next, step) = apply_tgd_step(&cur, t, &h, &mut supply);
                        cur = dedup.apply(&next);
                        steps += 1;
                        trace.push_tgd(
                            i,
                            cur.body.len(),
                            binding_vars(t).into_iter().map(|v| step.apply_term(&Term::Var(v))),
                        );
                        continue 'outer;
                    }
                }
            }
        }
        // No dependency applicable (under the admission predicate).
        return Ok(Chased { query: cur, failed: false, steps, renaming, trace });
    }
}
