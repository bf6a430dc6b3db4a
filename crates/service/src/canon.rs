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
use std::hash::{Hash, Hasher};
use std::ops::Range;

/// FNV-1a. The fingerprint sits on the cache's *hit* path (it is computed
/// per probe), so it uses a cheap multiply-xor hash rather than the
/// DoS-resistant default — collisions are resolved by exact isomorphism
/// checks anyway, never trusted.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

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
    let mut h = Fnv::new();
    x.hash(&mut h);
    h.finish()
}

/// A term as color refinement sees it: a variable's dense index, or a
/// constant's color (constants never change color between rounds).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Slot {
    Var(usize),
    Color(u64),
}

impl Slot {
    fn color(self, var_colors: &[u64]) -> u64 {
        match self {
            Slot::Var(v) => var_colors[v],
            Slot::Color(c) => c,
        }
    }
}

/// A renaming-invariant fingerprint of a conjunctive query.
///
/// Guaranteed equal for isomorphic queries (in the [`eqsql_cq::iso`] sense:
/// positional head correspondence, bodies as multisets); equality for
/// non-isomorphic queries is possible but harmless to the cache.
///
/// Runs on every cache probe, so the refinement works over dense tables
/// built once per call — variable indices, flattened argument slots, each
/// atom's hash state after its predicate and arity, and per-variable
/// occurrence lists — and reuses its buffers across rounds. FNV sees
/// exactly the bytes that hashing the per-step tuples with [`Hash`] feeds
/// it — `("head", positions)`, `(predicate, argument colors)`, `(color,
/// sorted occurrences)`, `(head arity, head colors, sorted atom colors)` —
/// so the fingerprint equals that of the map-based recipe this replaced
/// (kept as the oracle in this module's tests).
pub fn query_fingerprint(q: &CqQuery) -> u64 {
    // Variables are numbered in first-occurrence order by a linear scan:
    // probes are request-sized queries with a handful of variables.
    let mut vars: Vec<Var> = Vec::new();
    let mut slot = |t: &Term| match t {
        Term::Var(v) => Slot::Var(match vars.iter().position(|w| w == v) {
            Some(i) => i,
            None => {
                vars.push(*v);
                vars.len() - 1
            }
        }),
        Term::Const(c) => Slot::Color(h64(("const", c))),
    };
    let head: Vec<Slot> = q.head.iter().map(&mut slot).collect();
    // Each atom as its arguments' range in `args` and its seed: the hash
    // state after its predicate name and arity, the part of its color that
    // never changes.
    let mut args: Vec<Slot> = Vec::new();
    let mut atoms: Vec<(Range<usize>, u64)> = Vec::with_capacity(q.body.len());
    for a in &q.body {
        let start = args.len();
        args.extend(a.args.iter().map(&mut slot));
        let mut h = Fnv::new();
        a.pred.name().hash(&mut h);
        h.write_usize(a.args.len());
        atoms.push((start..args.len(), h.0));
    }
    let n = vars.len();
    // Occurrence lists: variable `v` occurs at the `(atom, position)`
    // pairs `occ[starts[v]..starts[v + 1]]`.
    let mut starts = vec![0usize; n + 1];
    for s in &args {
        if let Slot::Var(v) = s {
            starts[v + 1] += 1;
        }
    }
    for v in 0..n {
        starts[v + 1] += starts[v];
    }
    let mut occ = vec![(0usize, 0usize); starts[n]];
    let mut fill = starts.clone();
    for (a, (range, _)) in atoms.iter().enumerate() {
        for (pos, s) in args[range.clone()].iter().enumerate() {
            if let Slot::Var(v) = *s {
                occ[fill[v]] = (a, pos);
                fill[v] += 1;
            }
        }
    }
    // Round 0: head participation. Interned symbol ids are process-local,
    // so hash the *positions*, never the names.
    let mut color: Vec<u64> = (0..n)
        .map(|v| {
            let mut h = Fnv::new();
            "head".hash(&mut h);
            let at = |&(_, s): &(usize, &Slot)| *s == Slot::Var(v);
            h.write_usize(head.iter().enumerate().filter(at).count());
            for (i, _) in head.iter().enumerate().filter(at) {
                h.write_usize(i);
            }
            h.0
        })
        .collect();
    // Refine until colors must have stabilized: each round either splits a
    // color class or changes nothing, so |vars| rounds suffice (capped for
    // pathological inputs — soundness never depends on reaching the fixpoint).
    let rounds = n.clamp(2, 16);
    let mut next = vec![0u64; n];
    let mut atom_colors = vec![0u64; q.body.len()];
    let mut pairs: Vec<(u64, usize)> = Vec::new();
    for _ in 0..rounds {
        for ((range, seed), atom_color) in atoms.iter().zip(&mut atom_colors) {
            let mut h = Fnv(*seed);
            for s in &args[range.clone()] {
                h.write_u64(s.color(&color));
            }
            *atom_color = h.0;
        }
        for v in 0..n {
            pairs.clear();
            pairs.extend(
                occ[starts[v]..starts[v + 1]].iter().map(|&(a, pos)| (atom_colors[a], pos)),
            );
            pairs.sort_unstable();
            let mut h = Fnv::new();
            h.write_u64(color[v]);
            h.write_usize(pairs.len());
            for &(c, pos) in &pairs {
                h.write_u64(c);
                h.write_usize(pos);
            }
            next[v] = h.0;
        }
        std::mem::swap(&mut color, &mut next);
    }
    // The head colors (in order) with the sorted multiset of atom colors.
    let mut h = Fnv::new();
    h.write_usize(head.len());
    h.write_usize(head.len());
    for s in &head {
        h.write_u64(s.color(&color));
    }
    atom_colors.sort_unstable();
    h.write_usize(atom_colors.len());
    for &c in &atom_colors {
        h.write_u64(c);
    }
    h.0
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
/// (Σ, semantics) — a [`crate::Solver`] holds one per semantics — and reuse;
/// construction renders Σ to text.
#[derive(Clone, Debug)]
pub struct ChaseContext {
    fingerprint: u64,
    sem: Semantics,
    sigma_text: std::sync::Arc<str>,
    set_valued: std::sync::Arc<[String]>,
    max_steps: usize,
    max_atoms: usize,
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
        ChaseContext::with_text(sem, sigma.to_string().into(), schema, config)
    }

    /// [`ChaseContext::new`] from an already-rendered Σ — rendering is the
    /// expensive half, so callers building several contexts over one Σ
    /// (a session's three semantics, the cache's per-Σ memo) share it.
    pub(crate) fn with_text(
        sem: Semantics,
        sigma_text: std::sync::Arc<str>,
        schema: &Schema,
        config: &ChaseConfig,
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
    ) -> ChaseContext {
        let sem_tag: u8 = match sem {
            Semantics::Set => 0,
            Semantics::Bag => 1,
            Semantics::BagSet => 2,
        };
        let fingerprint =
            h64((sem_tag, sigma_text.as_ref(), set_valued.as_ref(), max_steps, max_atoms));
        ChaseContext { fingerprint, sem, sigma_text, set_valued, max_steps, max_atoms }
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

    /// Exact equality of the key material — the authority a fingerprint
    /// match is confirmed against.
    pub fn same(&self, other: &ChaseContext) -> bool {
        self.fingerprint == other.fingerprint
            && self.sem == other.sem
            && self.max_steps == other.max_steps
            && self.max_atoms == other.max_atoms
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
    use crate::{parse_request_file, Request};
    use eqsql_chase::sound_chase;
    use eqsql_cq::{parse_query, Value};
    use eqsql_deps::parse_dependencies;
    use eqsql_gen::queries::{random_query, QueryParams};
    use eqsql_gen::{appendix_h_instance, rename_isomorphic};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    fn q(s: &str) -> CqQuery {
        parse_query(s).unwrap()
    }

    /// The map-based recipe [`query_fingerprint`] was first written as:
    /// the oracle its dense-table rewrite must match bit for bit.
    fn oracle_fingerprint(q: &CqQuery) -> u64 {
        let vars = q.all_vars();
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

    /// Asserts the oracle agrees on `q` and, when `chase` is given, on its
    /// sound-chase terminal; returns how many queries were compared.
    fn agree(q: &CqQuery, chase: Option<(Semantics, &DependencySet, &Schema)>) -> usize {
        assert_eq!(query_fingerprint(q), oracle_fingerprint(q), "{q}");
        let Some((sem, sigma, schema)) = chase else { return 1 };
        match sound_chase(sem, q, sigma, schema, &ChaseConfig::default()) {
            Ok(r) => agree(&r.query, None) + 1,
            Err(_) => 1,
        }
    }

    #[test]
    fn fingerprint_matches_the_map_based_oracle() {
        let mut compared = 0;
        // The committed equiv_batch stream, with its Set and BagSet terminals.
        let file = parse_request_file(include_str!("../fixtures/equiv_batch.req")).unwrap();
        for req in &file.requests {
            let Request::Equivalent { q1, q2, .. } = req else { continue };
            for q in [q1, q2] {
                for sem in [Semantics::Set, Semantics::BagSet] {
                    compared += agree(q, Some((sem, &file.sigma, &file.schema)));
                }
            }
        }
        // Seeded Appendix-H m=4 pairs (even pairs α-renamed twins, odd
        // pairs independent), with their terminals. Semantics cycle over the
        // first 30 pairs only: unoptimized, a bag chase here costs ~40 ms.
        let h = appendix_h_instance(4);
        let mut rng = StdRng::seed_from_u64(0xF1);
        let params =
            QueryParams { atoms: 3, vars: 4, const_prob: 0.1, const_domain: 3, max_head: 2 };
        for k in 0..400 {
            let sem = match k {
                0..30 => [Semantics::Set, Semantics::Bag, Semantics::BagSet][k % 3],
                _ => Semantics::Set,
            };
            let q1 = random_query(&mut rng, &h.schema, &params);
            let q2 = if k % 2 == 0 {
                rename_isomorphic(&mut rng, &q1)
            } else {
                random_query(&mut rng, &h.schema, &params)
            };
            for q in [&q1, &q2] {
                compared += agree(q, Some((sem, &h.sigma, &h.schema)));
            }
        }
        // Random queries, with head constants, repeated head variables and
        // every constant shape mixed in.
        let schema = Schema::all_bags(&[("a", 1), ("b", 2), ("c", 3), ("d", 4)]);
        let mut rng = StdRng::seed_from_u64(0xF2);
        for k in 0..2000 {
            let params = QueryParams {
                atoms: 1 + k % 8,
                vars: 1 + k % 7,
                const_prob: 0.2,
                const_domain: 5,
                max_head: 3,
            };
            let mut q = random_query(&mut rng, &schema, &params);
            if rng.gen_bool(0.3) {
                let c = [Value::str("k"), Value::real(0.5), Value::Labeled(7)][k % 3];
                q.head.push(Term::Const(c));
                let atom = k % q.body.len();
                q.body[atom].args[0] = Term::Const(c);
            }
            if let Some(&t) = q.head.first().filter(|_| rng.gen_bool(0.3)) {
                q.head.push(t);
            }
            compared += agree(&q, None);
        }
        assert!(compared >= 3000, "compared only {compared} queries");
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
