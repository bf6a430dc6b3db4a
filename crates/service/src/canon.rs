//! Renaming-invariant canonicalization of `(query, Σ)` cache keys.
//!
//! The chase-result cache must identify chase inputs **up to variable
//! renaming**: `sound_chase` commutes with α-renaming (the engine renames
//! Σ apart from the query and draws fresh variables deterministically from
//! the query's own names, so the terminal queries of two α-equivalent
//! inputs are isomorphic, with the bijection extending the input renaming).
//! Variable *names* therefore must not leak into the cache key.
//!
//! The canonicalizer computes a **renaming-invariant fingerprint** by
//! Weisfeiler–Leman-style color refinement on the query's variables:
//!
//! 1. each variable starts with a color derived from its head positions
//!    (heads are positional — `q(X,Y)` and `q(Y,X)` must differ);
//! 2. each round, an atom's color is its predicate plus the per-position
//!    colors of its arguments (constants contribute their value), and a
//!    variable's new color folds in the sorted multiset of
//!    `(atom color, position)` pairs it occurs at;
//! 3. after `|vars|`-bounded rounds, the query fingerprint hashes the head
//!    colors (in order) with the sorted multiset of atom colors.
//!
//! Isomorphic queries always collide (the invariants are computed from
//! renaming-independent structure only); non-isomorphic queries *may*
//! collide, so the cache confirms every probe with an exact
//! [`eqsql_cq::find_isomorphism`] check and keeps distinct entries per
//! fingerprint bucket — a fingerprint collision costs a failed match, never
//! a wrong answer (see the cache-poisoning guard tests).

use eqsql_chase::ChaseConfig;
use eqsql_cq::{CqQuery, Term, Var};
use eqsql_deps::DependencySet;
use eqsql_relalg::{Schema, Semantics};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// FNV-1a. The fingerprint sits on the cache's *hit* path (it is computed
/// per probe), so it uses a cheap multiply-xor hash rather than the
/// DoS-resistant default — collisions are resolved by exact isomorphism
/// checks anyway, never trusted.
struct Fnv(u64);

impl Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn h64(x: impl Hash) -> u64 {
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    x.hash(&mut h);
    h.finish()
}

/// A renaming-invariant fingerprint of a conjunctive query.
///
/// Guaranteed equal for isomorphic queries (in the [`eqsql_cq::iso`] sense:
/// positional head correspondence, bodies as multisets); equality for
/// non-isomorphic queries is possible but harmless to the cache.
pub fn query_fingerprint(q: &CqQuery) -> u64 {
    let vars = q.all_vars();
    // Round 0: head participation. Interned symbol ids are process-local,
    // so hash the *positions*, never the names.
    let mut color: HashMap<Var, u64> = vars
        .iter()
        .map(|v| {
            let head_positions: Vec<usize> = q
                .head
                .iter()
                .enumerate()
                .filter(|(_, t)| **t == Term::Var(*v))
                .map(|(i, _)| i)
                .collect();
            (*v, h64(("head", head_positions)))
        })
        .collect();
    // Refine until colors must have stabilized: each round either splits a
    // color class or changes nothing, so |vars| rounds suffice (capped for
    // pathological inputs — soundness never depends on reaching the fixpoint).
    let rounds = vars.len().clamp(2, 16);
    let mut atom_colors: Vec<u64> = Vec::new();
    for _ in 0..rounds {
        atom_colors = q
            .body
            .iter()
            .map(|a| {
                let arg_colors: Vec<u64> = a
                    .args
                    .iter()
                    .map(|t| match t {
                        Term::Var(v) => color[v],
                        Term::Const(c) => h64(("const", c)),
                    })
                    .collect();
                h64((a.pred.name(), arg_colors))
            })
            .collect();
        let mut next: HashMap<Var, u64> = HashMap::with_capacity(color.len());
        for v in &vars {
            let mut occ: Vec<(u64, usize)> = Vec::new();
            for (a, &ac) in q.body.iter().zip(atom_colors.iter()) {
                for (i, t) in a.args.iter().enumerate() {
                    if *t == Term::Var(*v) {
                        occ.push((ac, i));
                    }
                }
            }
            occ.sort_unstable();
            next.insert(*v, h64((color[v], occ)));
        }
        color = next;
    }
    let head_colors: Vec<u64> = q
        .head
        .iter()
        .map(|t| match t {
            Term::Var(v) => color[v],
            Term::Const(c) => h64(("const", c)),
        })
        .collect();
    atom_colors.sort_unstable();
    h64((q.head.len(), head_colors, atom_colors))
}

/// The chase *context*: everything besides the query that the sound
/// chase's outcome depends on — Σ (textual; α-variant Σs merely miss), the
/// semantics, the schema's set-valuedness flags (consulted under bag
/// semantics) and the chase budgets (a cached budget-exhaustion outcome is
/// only valid for the budgets it was observed under).
///
/// Carries both a fingerprint for sharding/bucketing *and* the exact key
/// material: unlike the query side (where an isomorphism check confirms
/// every probe), a context fingerprint collision cannot be detected after
/// the fact, so cache entries compare contexts field-for-field via
/// [`ChaseContext::same`] before being trusted. Construct once per
/// (Σ, semantics) — a `BatchSession` holds one per semantics — and reuse;
/// construction renders Σ to text.
#[derive(Clone, Debug)]
pub struct ChaseContext {
    fingerprint: u64,
    sem: Semantics,
    sigma_text: std::sync::Arc<str>,
    set_valued: std::sync::Arc<[String]>,
    max_steps: usize,
    max_atoms: usize,
    /// Was the chase delta-seeded (`EngineOpts::delta_seeding`)? Delta
    /// seeding changes the firing order, so terminal queries are only
    /// Σ-equivalent — not isomorphic — to the reference engine's; cached
    /// results therefore must not cross the flag.
    delta_seeding: bool,
}

impl ChaseContext {
    /// Builds the context key. `sigma` should be the Σ actually handed to
    /// the chase (callers that pre-regularize pass the regularized set, so
    /// original Σs sharing a regularized form share cache entries —
    /// Proposition 4.1 makes that an equivalence).
    pub fn new(
        sem: Semantics,
        sigma: &DependencySet,
        schema: &Schema,
        config: &ChaseConfig,
    ) -> ChaseContext {
        ChaseContext::with_text(sem, sigma.to_string().into(), schema, config, false)
    }

    /// [`ChaseContext::new`] from an already-rendered Σ — rendering is the
    /// expensive half, so callers building several contexts over one Σ
    /// (a session's three semantics, the cache's per-Σ memo) share it.
    pub(crate) fn with_text(
        sem: Semantics,
        sigma_text: std::sync::Arc<str>,
        schema: &Schema,
        config: &ChaseConfig,
        delta_seeding: bool,
    ) -> ChaseContext {
        let mut set_valued: Vec<String> =
            schema.set_valued_relations().into_iter().map(|p| p.name().to_string()).collect();
        set_valued.sort_unstable();
        ChaseContext::from_parts(
            sem,
            sigma_text,
            set_valued.into(),
            config.max_steps,
            config.max_atoms,
            delta_seeding,
        )
    }

    /// Rebuilds a context from its exact key material — the decode path of
    /// the persistence tier ([`crate::cache::persist`]), which stores the
    /// material (never the hash) and must recompute the fingerprint with
    /// the same recipe [`ChaseContext::with_text`] uses, so a persisted
    /// entry lands in the same bucket a live probe would.
    pub(crate) fn from_parts(
        sem: Semantics,
        sigma_text: std::sync::Arc<str>,
        set_valued: std::sync::Arc<[String]>,
        max_steps: usize,
        max_atoms: usize,
        delta_seeding: bool,
    ) -> ChaseContext {
        let sem_tag: u8 = match sem {
            Semantics::Set => 0,
            Semantics::Bag => 1,
            Semantics::BagSet => 2,
        };
        let fingerprint = h64((
            sem_tag,
            sigma_text.as_ref(),
            set_valued.as_ref(),
            max_steps,
            max_atoms,
            delta_seeding,
        ));
        ChaseContext {
            fingerprint,
            sem,
            sigma_text,
            set_valued,
            max_steps,
            max_atoms,
            delta_seeding,
        }
    }

    /// The context's bucketing fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The semantics this context keys.
    pub(crate) fn sem(&self) -> Semantics {
        self.sem
    }

    /// The rendered (regularized) Σ this context keys.
    pub(crate) fn sigma_text(&self) -> &std::sync::Arc<str> {
        &self.sigma_text
    }

    /// The sorted set-valued relation names this context keys.
    pub(crate) fn set_valued(&self) -> &[String] {
        &self.set_valued
    }

    /// The step budget this context keys.
    pub(crate) fn max_steps(&self) -> usize {
        self.max_steps
    }

    /// The atom budget this context keys.
    pub(crate) fn max_atoms(&self) -> usize {
        self.max_atoms
    }

    /// Was the keyed chase delta-seeded?
    pub(crate) fn delta_seeding(&self) -> bool {
        self.delta_seeding
    }

    /// Exact equality of the key material — the authority a fingerprint
    /// match is confirmed against.
    pub fn same(&self, other: &ChaseContext) -> bool {
        self.fingerprint == other.fingerprint
            && self.sem == other.sem
            && self.max_steps == other.max_steps
            && self.max_atoms == other.max_atoms
            && self.delta_seeding == other.delta_seeding
            && self.set_valued == other.set_valued
            && self.sigma_text == other.sigma_text
    }
}

/// The fingerprint of [`ChaseContext::new`], for callers that only need
/// the hash (the exact-match material is what the cache itself stores).
pub fn context_fingerprint(
    sem: Semantics,
    sigma: &DependencySet,
    schema: &Schema,
    config: &ChaseConfig,
) -> u64 {
    ChaseContext::new(sem, sigma, schema, config).fingerprint()
}

/// The sharded cache key: context and query fingerprints combined.
pub fn cache_key(query_fp: u64, context_fp: u64) -> u64 {
    h64((query_fp, context_fp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqsql_cq::parse_query;
    use eqsql_deps::parse_dependencies;

    fn q(s: &str) -> CqQuery {
        parse_query(s).unwrap()
    }

    #[test]
    fn fingerprint_is_renaming_invariant() {
        let a = q("q(X) :- p(X,Y), s(Y,Z), s(Y,W)");
        let b = q("q(A1) :- s(B2,C3), p(A1,B2), s(B2,D4)");
        assert_eq!(query_fingerprint(&a), query_fingerprint(&b));
    }

    #[test]
    fn fingerprint_separates_structure() {
        let base = q("q(X) :- p(X,Y), s(Y,Z)");
        for other in [
            "q(X) :- p(X,Y), s(X,Z)",         // different join shape
            "q(Y) :- p(X,Y), s(Y,Z)",         // different head variable
            "q(X) :- p(X,Y), s(Y,Z), s(Y,Z)", // duplicate subgoal (multiset!)
            "q(X) :- p(X,Y), s(Y,3)",         // constant
        ] {
            assert_ne!(query_fingerprint(&base), query_fingerprint(&q(other)), "{other}");
        }
    }

    #[test]
    fn fingerprint_ignores_atom_order_and_name() {
        let a = q("q1(X) :- p(X,Y), r(X), s(Y,Z)");
        let b = q("q2(X) :- s(Y,Z), r(X), p(X,Y)");
        assert_eq!(query_fingerprint(&a), query_fingerprint(&b));
    }

    #[test]
    fn head_constants_participate() {
        assert_ne!(
            query_fingerprint(&q("q(X, 1) :- p(X,Y)")),
            query_fingerprint(&q("q(X, 2) :- p(X,Y)")),
        );
    }

    #[test]
    fn context_separates_sigma_semantics_and_budget() {
        let s1 = parse_dependencies("a(X) -> b(X).").unwrap();
        let s2 = parse_dependencies("a(X) -> c(X).").unwrap();
        let schema = Schema::all_bags(&[("a", 1), ("b", 1), ("c", 1)]);
        let cfg = ChaseConfig::default();
        let f = |sem, sigma, cfg: &ChaseConfig| context_fingerprint(sem, sigma, &schema, cfg);
        assert_ne!(f(Semantics::Set, &s1, &cfg), f(Semantics::Set, &s2, &cfg));
        assert_ne!(f(Semantics::Set, &s1, &cfg), f(Semantics::Bag, &s1, &cfg));
        assert_ne!(
            f(Semantics::Set, &s1, &cfg),
            f(Semantics::Set, &s1, &ChaseConfig::with_max_steps(7)),
        );
        let mut marked = schema.clone();
        marked.mark_set_valued(eqsql_cq::Predicate::new("b"));
        assert_ne!(
            context_fingerprint(Semantics::Bag, &s1, &schema, &cfg),
            context_fingerprint(Semantics::Bag, &s1, &marked, &cfg),
        );
    }
}
