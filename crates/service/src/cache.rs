//! The sharded, concurrency-safe `(Q, Σ)` chase-result cache.
//!
//! ## What is cached
//!
//! One entry per α-equivalence class of chase inputs: the key is the
//! renaming-invariant fingerprint of ([`crate::canon::query_fingerprint`])
//! the query combined with the context fingerprint (Σ, semantics,
//! set-valuedness flags, budgets). The value is the **terminal outcome** —
//! the sound-chase result (terminal query, failure flag, step count,
//! accumulated renaming, trace) or the [`ChaseError`] (budget exhaustion /
//! query growth), which is just as expensive to rediscover. Only
//! *cacheable* errors are stored ([`ChaseError::is_cacheable`]): budget
//! exhaustion and query growth are deterministic facts of `(Q, Σ, budget)`,
//! whereas a deadline or cancellation says nothing about the input — a
//! guarded run that dies must not poison the cache for the retry that
//! follows it.
//!
//! ## Soundness of the key
//!
//! A fingerprint match alone is *not* trusted: every probe is confirmed
//! with an exact [`find_isomorphism`] check against the entry's stored
//! representative query, and distinct non-isomorphic queries sharing a
//! fingerprint coexist as separate entries in the same bucket. Together
//! with the α-commutation of the sound chase (renaming the input renames
//! the output; see [`crate::canon`]) this makes a hit semantically
//! indistinguishable from a fresh chase: the cached terminal result is
//! **replayed** through the witnessing bijection — terminal-query
//! variables that originate in the representative are mapped back onto the
//! probe's variables, chase-introduced variables are renamed fresh apart
//! from the probe, and the accumulated renaming (the input to the
//! assignment-fixing path, Definition 4.3) is transported the same way.
//!
//! ## Concurrency
//!
//! The cache is sharded by key; each shard is an independent mutex, so
//! the worker threads of a [`crate::Solver`] batch rarely contend.
//! Chases run *outside* any lock — a racing duplicate computation is
//! possible (and harmless: last writer wins, the loser's result is simply
//! returned uncached). Hit/miss/eviction counters are atomics. Eviction is
//! FIFO per shard once the shard exceeds its capacity share. Shard locks
//! recover from poisoning: no chase runs under a lock, so a panic caught
//! mid-critical-section can only have interrupted bookkeeping whose
//! invariants are re-established on the next insert, and a solver that
//! isolates panicking requests must not lose its cache to them.

pub mod persist;

use crate::canon::{cache_key, query_fingerprint, ChaseContext};
use eqsql_chase::set_chase::Chased;
use eqsql_chase::{
    sound_chase_prepared_opts, ChaseConfig, ChaseError, ChaseTrace, EngineOpts, SoundChased,
};
use eqsql_core::SoundChaser;
use eqsql_cq::{find_isomorphism, CqQuery, Subst, Term, Var, VarSupply};
use eqsql_deps::{regularize_set, DependencySet};
use eqsql_relalg::{Schema, Semantics};
use persist::{PersistConfig, PersistStats, PersistTier};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering the guard if a caught panic poisoned it (see the
/// module docs on why that is sound here).
pub(crate) fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Sizing knobs for [`ChaseCache`].
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Number of independent shards (each its own mutex).
    pub shards: usize,
    /// Total entry capacity across all shards; exceeding a shard's
    /// per-shard share evicts its oldest entries (FIFO).
    pub capacity: usize,
    /// Optional disk tier ([`persist`]): entries survive process restarts
    /// and memory-tier evictions. `None` keeps the cache memory-only.
    pub persist: Option<PersistConfig>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { shards: 16, capacity: 4096, persist: None }
    }
}

/// Distinct Σs memoized in regularized form before the memo is reset.
const SIGMA_MEMO_CAP: usize = 256;

/// A stored terminal chase result, expressed over the representative
/// query's variables. The per-step trace is deliberately *not* stored:
/// it is pure diagnostics (never an input to a decision), and its records
/// name the representative's variables, not the probe's — replayed
/// results report an empty [`ChaseTrace`] instead.
#[derive(Clone, Debug)]
pub(crate) struct StoredChase {
    pub(crate) query: CqQuery,
    pub(crate) failed: bool,
    pub(crate) steps: usize,
    pub(crate) renaming: Subst,
    pub(crate) sigma_regularized: Arc<DependencySet>,
}

/// A cached chase outcome: the stored terminal result or the terminal
/// error.
pub(crate) type StoredOutcome = Result<Arc<StoredChase>, ChaseError>;

/// A regularized Σ and its rendered text.
type Regularized = (Arc<DependencySet>, Arc<str>);

#[derive(Clone, Debug)]
struct Entry {
    /// Exact context key (fingerprint plus the material it hashes):
    /// confirmed field-for-field on every probe, so a fingerprint
    /// collision between contexts costs a failed match, never a verdict
    /// computed under the wrong Σ/semantics/budget.
    ctx: ChaseContext,
    /// The representative query this entry was computed on.
    representative: CqQuery,
    /// Terminal result or terminal error — both are cache-worthy. The
    /// result sits behind an `Arc` so a hit clones a pointer inside the
    /// shard lock, not an exponential-size terminal query.
    outcome: StoredOutcome,
    /// Insertion id, for FIFO eviction.
    id: u64,
}

#[derive(Default)]
struct Shard {
    buckets: HashMap<u64, Vec<Entry>>,
    order: VecDeque<(u64, u64)>,
    entries: usize,
}

/// Point-in-time cache counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes answered from a stored entry.
    pub hits: u64,
    /// Probes that fell through to the chase engine.
    pub misses: u64,
    /// Entries discarded to capacity pressure.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Resident entries per shard, in shard order. Keys shard by
    /// fingerprint, so a skewed distribution here (one shard holding most
    /// entries while others sit empty) is the observable symptom of
    /// fingerprint clustering — worth knowing before blaming capacity.
    pub shard_entries: Vec<usize>,
    /// Disk-tier counters (all zero when persistence is off).
    pub persist: PersistStats,
}

/// Where one chase probe was answered. The interesting split is
/// memory-vs-disk: a disk hit saves the chase but still pays
/// deserialization and promotion, so a workload whose "hits" are mostly
/// disk hits warms very differently from one riding the resident tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Answered from the resident memory tier.
    MemoryHit,
    /// Answered from the disk tier (and promoted into memory).
    DiskHit,
    /// A fresh chase ran (including runs whose transient error was
    /// deliberately left uncached).
    Miss,
}

impl CacheOutcome {
    /// Did the probe avoid a fresh chase?
    pub fn is_hit(self) -> bool {
        !matches!(self, CacheOutcome::Miss)
    }
}

/// The sharded `(Q, Σ)` chase-result cache. See the module docs.
pub struct ChaseCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    next_id: AtomicU64,
    /// Rendered Σ → (regularized Σ, its rendered text), so repeated
    /// chases over one Σ regularize and render it once. Keyed exactly (by
    /// text) and bounded by [`SIGMA_MEMO_CAP`].
    regularize_memo: Mutex<HashMap<String, Regularized>>,
    /// The disk tier, when [`CacheConfig::persist`] is set. Memory misses
    /// fall through to it; fresh terminal results are appended to it.
    persist: Option<PersistTier>,
}

impl Default for ChaseCache {
    fn default() -> Self {
        ChaseCache::new(CacheConfig::default())
    }
}

impl ChaseCache {
    /// An empty cache with the given sizing. If a persistence tier is
    /// configured but fails to open, the cache degrades to memory-only
    /// (with `persist.io_errors = 1` in [`ChaseCache::stats`]) rather than
    /// failing — callers that must know use [`ChaseCache::open`].
    pub fn new(config: CacheConfig) -> ChaseCache {
        let tier = config
            .persist
            .as_ref()
            .map(|p| PersistTier::open(p).unwrap_or_else(|_| PersistTier::unavailable()));
        ChaseCache::with_tier(&config, tier)
    }

    /// [`ChaseCache::new`], but surfacing a persistence-tier open failure
    /// (an uncreatable directory, unopenable files) instead of degrading.
    /// Corrupt file *content* is never an error — recovery keeps the valid
    /// prefix and counts the damage (see [`persist`]).
    pub fn open(config: CacheConfig) -> io::Result<ChaseCache> {
        let tier = match &config.persist {
            Some(p) => Some(PersistTier::open(p)?),
            None => None,
        };
        Ok(ChaseCache::with_tier(&config, tier))
    }

    fn with_tier(config: &CacheConfig, persist: Option<PersistTier>) -> ChaseCache {
        let shards = config.shards.max(1);
        ChaseCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity: (config.capacity / shards).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            regularize_memo: Mutex::new(HashMap::new()),
            persist,
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let shard_entries: Vec<usize> =
            self.shards.iter().map(|s| lock_recovering(s).entries).collect();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: shard_entries.iter().sum(),
            shard_entries,
            persist: self.persist.as_ref().map(PersistTier::stats).unwrap_or_default(),
        }
    }

    /// The regularized form of Σ, computed once per distinct Σ. The memo
    /// is dropped wholesale past `SIGMA_MEMO_CAP` distinct Σs —
    /// regularization is cheap to redo, unbounded growth in a long-running
    /// server is not.
    pub fn regularized(&self, sigma: &DependencySet) -> Arc<DependencySet> {
        self.regularized_with_text(sigma).0
    }

    /// [`ChaseCache::regularized`] plus the regularized set's rendered
    /// text (the expensive half of building a [`ChaseContext`]), both
    /// memoized, so the stateless [`SoundChaser`] path pays one render per
    /// distinct Σ rather than two per chase.
    pub(crate) fn regularized_with_text(&self, sigma: &DependencySet) -> Regularized {
        let text = sigma.to_string();
        let mut memo = lock_recovering(&self.regularize_memo);
        if memo.len() >= SIGMA_MEMO_CAP && !memo.contains_key(&text) {
            memo.clear();
        }
        let (reg, reg_text) = memo.entry(text).or_insert_with(|| {
            let reg = Arc::new(regularize_set(sigma));
            let reg_text: Arc<str> = reg.to_string().into();
            (reg, reg_text)
        });
        (Arc::clone(reg), Arc::clone(reg_text))
    }

    fn shard_of(&self, key: u64) -> &Mutex<Shard> {
        &self.shards[(key % self.shards.len() as u64) as usize]
    }

    /// Looks `q` up under the given context; on a match returns the
    /// stored outcome together with the probe→representative bijection.
    fn lookup(
        &self,
        key: u64,
        ctx: &ChaseContext,
        q: &CqQuery,
    ) -> Option<(StoredOutcome, HashMap<Var, Var>)> {
        let shard = lock_recovering(self.shard_of(key));
        let bucket = shard.buckets.get(&key)?;
        for entry in bucket {
            if !entry.ctx.same(ctx) {
                continue;
            }
            if let Some(map) = find_isomorphism(q, &entry.representative) {
                return Some((entry.outcome.clone(), map));
            }
        }
        None
    }

    fn insert(&self, key: u64, ctx: ChaseContext, q: &CqQuery, outcome: StoredOutcome) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut shard = lock_recovering(self.shard_of(key));
        let bucket = shard.buckets.entry(key).or_default();
        // Racing duplicate? Keep the resident entry: evicting it would
        // invalidate nothing, but skipping keeps the order queue exact.
        if bucket
            .iter()
            .any(|e| e.ctx.same(&ctx) && find_isomorphism(q, &e.representative).is_some())
        {
            return;
        }
        bucket.push(Entry { ctx, representative: q.clone(), outcome, id });
        shard.order.push_back((key, id));
        shard.entries += 1;
        while shard.entries > self.per_shard_capacity {
            let Some((old_key, old_id)) = shard.order.pop_front() else { break };
            let mut removed = false;
            if let Some(bucket) = shard.buckets.get_mut(&old_key) {
                if let Some(pos) = bucket.iter().position(|e| e.id == old_id) {
                    bucket.remove(pos);
                    removed = true;
                }
                if bucket.is_empty() {
                    shard.buckets.remove(&old_key);
                }
            }
            if removed {
                shard.entries -= 1;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Replays a stored outcome for `probe`, where `map` is the bijection
    /// from `probe`'s variables onto the representative's.
    fn replay(probe: &CqQuery, stored: &StoredChase, map: &HashMap<Var, Var>) -> SoundChased {
        // Invert the canonicalizing map, then extend it over every variable
        // of the stored terminal state: representative-originated variables
        // go back through the inverse, chase-introduced ones are renamed
        // fresh *apart from the probe* (their stored names may collide with
        // probe variables that map elsewhere).
        let inv: HashMap<Var, Var> = map.iter().map(|(p, r)| (*r, *p)).collect();
        let mut supply = VarSupply::avoiding([probe]);
        let mut sub = Subst::new();
        let cover = |v: Var, sub: &mut Subst, supply: &mut VarSupply| {
            if sub.get(v).is_none() {
                let image = match inv.get(&v) {
                    Some(p) => *p,
                    None => supply.fresh(v.name()),
                };
                sub.set(v, Term::Var(image));
            }
        };
        for v in stored.query.all_vars() {
            cover(v, &mut sub, &mut supply);
        }
        for (v, t) in stored.renaming.sorted_pairs() {
            cover(v, &mut sub, &mut supply);
            if let Term::Var(w) = t {
                cover(w, &mut sub, &mut supply);
            }
        }
        let mut query = stored.query.apply(&sub);
        query.name = probe.name;
        let renaming =
            Subst::from_pairs(stored.renaming.sorted_pairs().into_iter().map(|(v, t)| {
                let v2 = match sub.get(v) {
                    Some(Term::Var(w)) => *w,
                    _ => v,
                };
                (v2, sub.apply_term(&t))
            }));
        SoundChased {
            query: query.clone(),
            failed: stored.failed,
            steps: stored.steps,
            sigma_regularized: Arc::clone(&stored.sigma_regularized),
            chased: Chased {
                query,
                failed: stored.failed,
                steps: stored.steps,
                renaming,
                // Not stored (see StoredChase): replayed results carry an
                // empty trace.
                trace: ChaseTrace::new(),
            },
        }
    }
}

impl ChaseCache {
    /// The cache's core path, with the per-Σ work hoisted out: `ctx` is
    /// the [`crate::canon::context_fingerprint`] and `sigma_reg` the
    /// regularized Σ, both computed once per Solver rather than per chase,
    /// so the *hit* path touches Σ not at all (the [`SoundChaser`] impl
    /// derives them on every call). Reports *where* the probe was
    /// answered ([`CacheOutcome`]) — the attribution point for per-request
    /// tracing, exact even when other solvers share the cache. `opts`
    /// carries the run guard and step probe; neither changes a result, so
    /// neither is keyed.
    #[allow(clippy::too_many_arguments)]
    pub fn chase_keyed_attributed(
        &self,
        ctx: &ChaseContext,
        sigma_reg: &Arc<DependencySet>,
        sem: Semantics,
        q: &CqQuery,
        schema: &Schema,
        config: &ChaseConfig,
        opts: &EngineOpts,
    ) -> (Result<SoundChased, ChaseError>, CacheOutcome) {
        let key = cache_key(query_fingerprint(q), ctx.fingerprint());
        if let Some((outcome, map)) = self.lookup(key, ctx, q) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (outcome.map(|stored| Self::replay(q, &stored, &map)), CacheOutcome::MemoryHit);
        }
        // Memory miss: the disk tier may still know this entry (from a
        // previous process, or evicted under capacity pressure). A disk
        // hit counts as a cache hit, is promoted into the memory tier
        // (keyed by its own representative — isomorphic to `q`, so the
        // fingerprints agree) and is *not* re-appended: it is durable
        // already.
        if let Some(tier) = &self.persist {
            if let Some(hit) = tier.lookup(key, ctx, q) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                let result = hit.outcome.clone().map(|stored| Self::replay(q, &stored, &hit.map));
                self.insert(key, ctx.clone(), &hit.representative, hit.outcome);
                return (result, CacheOutcome::DiskHit);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let result = sound_chase_prepared_opts(sem, q, Arc::clone(sigma_reg), schema, config, opts);
        let stored = match &result {
            Ok(r) => Ok(Arc::new(StoredChase {
                query: r.query.clone(),
                failed: r.failed,
                steps: r.steps,
                renaming: r.chased.renaming.clone(),
                sigma_regularized: Arc::clone(sigma_reg),
            })),
            Err(e) if e.is_cacheable() => Err(e.clone()),
            // A deadline/cancellation is a fact about this run, not about
            // (Q, Σ): memoizing it would make the retry fail from cache.
            Err(_) => return (result, CacheOutcome::Miss),
        };
        if let Some(tier) = &self.persist {
            let outcome = match &stored {
                Ok(s) => Ok(persist::PersistedChase {
                    query: s.query.clone(),
                    failed: s.failed,
                    steps: s.steps,
                    renaming: s.renaming.clone(),
                }),
                Err(e) => Err(e.clone()),
            };
            tier.append(
                key,
                &persist::PersistRecord {
                    ctx: ctx.clone(),
                    sigma: Arc::clone(sigma_reg),
                    representative: q.clone(),
                    outcome,
                },
            );
        }
        self.insert(key, ctx.clone(), q, stored);
        (result, CacheOutcome::Miss)
    }
}

impl SoundChaser for ChaseCache {
    fn sound_chase(
        &self,
        sem: Semantics,
        q: &CqQuery,
        sigma: &DependencySet,
        schema: &Schema,
        config: &ChaseConfig,
    ) -> Result<SoundChased, ChaseError> {
        let (sigma_reg, reg_text) = self.regularized_with_text(sigma);
        let ctx = ChaseContext::with_text(sem, reg_text, schema, config);
        let opts = EngineOpts::default();
        self.chase_keyed_attributed(&ctx, &sigma_reg, sem, q, schema, config, &opts).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqsql_cq::{are_isomorphic, parse_query};
    use eqsql_deps::parse_dependencies;

    fn cfg() -> ChaseConfig {
        ChaseConfig::default()
    }

    fn fixture() -> (DependencySet, Schema) {
        let sigma = parse_dependencies(
            "p(X,Y) -> s(X,Z) & t(X,V,W).\n\
             p(X,Y) -> t(X,Y,W).\n\
             s(X,Y) & s(X,Z) -> Y = Z.",
        )
        .unwrap();
        let mut schema = Schema::all_bags(&[("p", 2), ("s", 2), ("t", 3)]);
        schema.mark_set_valued(eqsql_cq::Predicate::new("s"));
        schema.mark_set_valued(eqsql_cq::Predicate::new("t"));
        (sigma, schema)
    }

    #[test]
    fn hit_replays_isomorphic_result_over_probe_vars() {
        let (sigma, schema) = fixture();
        let cache = ChaseCache::default();
        let q = parse_query("q(X) :- p(X,Y)").unwrap();
        let fresh = cache.sound_chase(Semantics::Set, &q, &sigma, &schema, &cfg()).unwrap();
        assert_eq!(cache.stats().misses, 1);

        // α-renamed probe: hits, and the replayed result is the fresh chase
        // of the probe up to isomorphism, expressed over the probe's head.
        let renamed = parse_query("q(A) :- p(A,B)").unwrap();
        let replayed =
            cache.sound_chase(Semantics::Set, &renamed, &sigma, &schema, &cfg()).unwrap();
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(replayed.steps, fresh.steps);
        assert!(are_isomorphic(&replayed.query, &fresh.query));
        assert_eq!(replayed.query.head, renamed.head, "head must be over probe variables");
        // Chase-fresh variables must not collide with probe variables.
        let direct =
            eqsql_chase::sound_chase(Semantics::Set, &renamed, &sigma, &schema, &cfg()).unwrap();
        assert!(are_isomorphic(&replayed.query, &direct.query));
    }

    #[test]
    fn probe_vars_colliding_with_chase_fresh_names_are_kept_apart() {
        // The representative's chase introduces fresh vars named Z_1, W_2…;
        // a probe that *owns* such names must not capture them.
        let (sigma, schema) = fixture();
        let cache = ChaseCache::default();
        let q = parse_query("q(X) :- p(X,Y)").unwrap();
        cache.sound_chase(Semantics::Set, &q, &sigma, &schema, &cfg()).unwrap();
        let tricky = parse_query("q(Z_1) :- p(Z_1,W_1)").unwrap();
        let replayed = cache.sound_chase(Semantics::Set, &tricky, &sigma, &schema, &cfg()).unwrap();
        let direct =
            eqsql_chase::sound_chase(Semantics::Set, &tricky, &sigma, &schema, &cfg()).unwrap();
        assert_eq!(cache.stats().hits, 1);
        assert!(
            are_isomorphic(&replayed.query, &direct.query),
            "replayed {} vs direct {}",
            replayed.query,
            direct.query
        );
    }

    #[test]
    fn errors_are_cached_outcomes() {
        let sigma = parse_dependencies("e(X,Y) -> e(Y,Z).").unwrap();
        let schema = Schema::all_bags(&[("e", 2)]);
        let cache = ChaseCache::default();
        let q = parse_query("q(X) :- e(X,Y)").unwrap();
        let small = ChaseConfig::with_max_steps(13);
        let e1 = cache.sound_chase(Semantics::Set, &q, &sigma, &schema, &small).unwrap_err();
        let q2 = parse_query("q(U) :- e(U,V)").unwrap();
        let e2 = cache.sound_chase(Semantics::Set, &q2, &sigma, &schema, &small).unwrap_err();
        assert_eq!(e1, e2);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.entries), (1, 1, 0, 1));
        assert_eq!(s.shard_entries.len(), CacheConfig::default().shards);
        assert_eq!(s.shard_entries.iter().sum::<usize>(), s.entries);
    }

    #[test]
    fn semantics_and_budget_partition_the_cache() {
        let (sigma, schema) = fixture();
        let cache = ChaseCache::default();
        let q = parse_query("q(X) :- p(X,Y)").unwrap();
        cache.sound_chase(Semantics::Set, &q, &sigma, &schema, &cfg()).unwrap();
        cache.sound_chase(Semantics::Bag, &q, &sigma, &schema, &cfg()).unwrap();
        cache
            .sound_chase(Semantics::Set, &q, &sigma, &schema, &ChaseConfig::with_max_steps(99))
            .unwrap();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 3, 3));
    }

    #[test]
    fn fifo_eviction_respects_capacity() {
        let sigma = parse_dependencies("a(X) -> b(X).").unwrap();
        let schema = Schema::all_bags(&[("a", 1), ("b", 1), ("c", 1)]);
        let cache = ChaseCache::new(CacheConfig { shards: 1, capacity: 2, ..Default::default() });
        for body in ["a(X)", "a(X), c(X)", "a(X), c(X), c(X)"] {
            let q = parse_query(&format!("q(X) :- {body}")).unwrap();
            cache.sound_chase(Semantics::Set, &q, &sigma, &schema, &cfg()).unwrap();
        }
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions), (2, 1));
        // The first entry was evicted: probing it again misses.
        let q = parse_query("q(X) :- a(X)").unwrap();
        cache.sound_chase(Semantics::Set, &q, &sigma, &schema, &cfg()).unwrap();
        assert_eq!(cache.stats().misses, 4);
    }
}
