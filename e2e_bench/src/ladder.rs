//! The traced ladder: the same request stream through each layer's public
//! functions, one rung at a time, from the chase engine up to the
//! `decide_all` pool. The socket rung runs in `main` against the server.
//! The difference between adjacent rungs is that layer's cost.

use crate::check::Expected;
use crate::stats::{us, Metrics, Samples};
use eqsql_chase::{sound_chase_prepared, sound_chase_prepared_opts, ChaseConfig, ChaseError};
use eqsql_chase::{EngineOpts, SoundChased};
use eqsql_core::counterexample::separating_database_via;
use eqsql_core::SoundChaser;
use eqsql_cq::iso::dedup_set_valued;
use eqsql_cq::{canonical_representation, containment_mapping, find_isomorphism, CqQuery};
use eqsql_deps::DependencySet;
use eqsql_obs::StepProbe;
use eqsql_relalg::{Schema, Semantics};
use eqsql_service::{
    BatchOptions, CacheConfig, CacheOutcome, ChaseCache, ChaseContext, PersistConfig, Request,
    RequestFile, Solver, VecSink,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Memory-tier capacity of `backchase_disk`: far below its 62 distinct
/// chase results, so most probes fall through to the disk tier.
pub const DISK_CAPACITY: usize = 16;

/// Appends between snapshot compactions, in the server and in process.
/// Each compaction rewrites and syncs every stored record on the request
/// path, so at the default cadence of 512 the rewritten volume grows with
/// the square of the run length (~100 MB in a ten-second fresh run) and
/// the rewrites, not the chases, set the pace. At 4096 a run still
/// compacts, about twice.
pub const SNAPSHOT_EVERY: usize = 4096;

/// Untraced/traced `decide_all` pairs run for the trace overhead, while
/// they fit in [`POOL_REPEAT_BUDGET`].
const POOL_PAIRS: usize = 7;
const POOL_REPEAT_BUDGET: std::time::Duration = std::time::Duration::from_secs(3);

/// The cache state a workload's rungs start from.
pub enum CacheState {
    /// Memory tier only, warmed by one untimed pass over the stream.
    Warm,
    /// A cache directory filled by an earlier pass, behind a memory tier of
    /// [`DISK_CAPACITY`] entries.
    Disk(PathBuf),
    /// A new, empty cache directory for every rung (under this parent).
    Fresh(PathBuf),
}

impl CacheState {
    fn open(&self, fresh_seq: &mut usize) -> (ChaseCache, Option<PathBuf>) {
        let (config, dir) = match self {
            CacheState::Warm => (CacheConfig::default(), None),
            CacheState::Disk(dir) => (
                CacheConfig {
                    capacity: DISK_CAPACITY,
                    persist: Some(persist_at(dir)),
                    ..CacheConfig::default()
                },
                Some(dir.clone()),
            ),
            CacheState::Fresh(parent) => {
                *fresh_seq += 1;
                let dir = parent.join(format!("rung-{fresh_seq}"));
                let config =
                    CacheConfig { persist: Some(persist_at(&dir)), ..CacheConfig::default() };
                (config, Some(dir))
            }
        };
        (ChaseCache::open(config).expect("cache directory opens"), dir)
    }
}

fn persist_at(dir: &Path) -> PersistConfig {
    PersistConfig { snapshot_every: SNAPSHOT_EVERY, ..PersistConfig::at(dir) }
}

/// The pair a request asks about.
fn pair(req: &Request) -> (Semantics, &CqQuery, &CqQuery) {
    match req {
        Request::Equivalent { q1, q2, opts } => (opts.sem.unwrap_or(Semantics::Set), q1, q2),
        other => panic!("benchmark streams hold only equivalence pairs, got {}", other.label()),
    }
}

/// A direct chaser that records every chase the counterexample search asks
/// for, so the cache rung can replay exactly the Solver's probe sequence.
struct RecordingChaser {
    sigma_reg: Arc<DependencySet>,
    probes: Mutex<Vec<(Semantics, CqQuery)>>,
}

impl SoundChaser for RecordingChaser {
    fn sound_chase(
        &self,
        sem: Semantics,
        q: &CqQuery,
        _sigma: &DependencySet,
        schema: &Schema,
        config: &ChaseConfig,
    ) -> Result<SoundChased, ChaseError> {
        self.probes.lock().expect("no panics while held").push((sem, q.clone()));
        sound_chase_prepared(sem, q, Arc::clone(&self.sigma_reg), schema, config)
    }
}

pub struct Ladder<'a> {
    file: &'a RequestFile,
    /// The stream: indices into `file.requests`, in replay order.
    order: &'a [usize],
    state: CacheState,
    fresh_seq: usize,
    sigma_reg: Arc<DependencySet>,
    /// Busy time of the chase, matcher and core rungs, µs.
    engine_us: f64,
}

/// What the in-process rungs hand the socket rung and the checks.
pub struct LadderOut {
    /// Per-request decision time in the untraced `decide_all` rung, µs.
    pub pool_service_us: Samples,
    pub expected: Expected,
}

impl<'a> Ladder<'a> {
    pub fn new(file: &'a RequestFile, order: &'a [usize], state: CacheState) -> Ladder<'a> {
        let sigma_reg = ChaseCache::default().regularized(&file.sigma);
        Ladder { file, order, state, fresh_seq: 0, sigma_reg, engine_us: 0.0 }
    }

    /// Runs every in-process rung and writes its metrics.
    pub fn run(&mut self, m: &mut Metrics) -> LadderOut {
        let t = Instant::now();
        let terminals = self.chase_rung(m);
        eprintln!("  chase rung {:.1}s", t.elapsed().as_secs_f64());
        let t = Instant::now();
        let equivalent = self.matcher_rung(m, &terminals);
        eprintln!("  matcher rung {:.1}s", t.elapsed().as_secs_f64());
        let t = Instant::now();
        let cex_probes = self.core_rung(m, &equivalent);
        eprintln!("  core rung {:.1}s", t.elapsed().as_secs_f64());
        let t = Instant::now();
        self.cache_rung(m, &equivalent, &cex_probes);
        eprintln!("  cache rung {:.1}s", t.elapsed().as_secs_f64());
        let t = Instant::now();
        let expected = self.decide_rung(m);
        eprintln!("  decide rung {:.1}s", t.elapsed().as_secs_f64());
        let t = Instant::now();
        let pool_service_us = self.pool_rungs(m);
        eprintln!("  decide_all rungs {:.1}s", t.elapsed().as_secs_f64());
        LadderOut { pool_service_us, expected }
    }

    /// Engine rung: the sound chase of each side of each pair, no cache.
    fn chase_rung(&mut self, m: &mut Metrics) -> HashMap<usize, [SoundChased; 2]> {
        let f = self.file;
        let (mut times, mut steps, mut atoms) = (Samples::default(), 0u64, 0u64);
        let (mut useful, mut scans) = (0u64, 0u64);
        let mut terminals = HashMap::new();
        for &i in self.order {
            let (sem, q1, q2) = pair(&f.requests[i]);
            let mut chase = |q: &CqQuery| {
                let opts = EngineOpts { probe: StepProbe::armed(), ..EngineOpts::default() };
                let t = Instant::now();
                let r = sound_chase_prepared_opts(
                    sem,
                    q,
                    Arc::clone(&self.sigma_reg),
                    &f.schema,
                    &f.config,
                    &opts,
                );
                times.push(us(t.elapsed()));
                let r = r.expect("benchmark chases terminate within budget");
                steps += r.steps as u64;
                atoms += r.query.body.len() as u64;
                useful += opts.probe.steps();
                scans += opts.probe.scans();
                r
            };
            let sides = [chase(q1), chase(q2)];
            terminals.entry(i).or_insert(sides);
        }
        self.engine_us += times.sum();
        m.put("chase.us_p50", times.p50(), "us");
        m.put("chase.us_p99", times.p99(), "us");
        m.put("chase.steps_per_chase", steps as f64 / times.len().max(1) as f64, "count");
        m.put("chase.terminal_atoms_mean", atoms as f64 / times.len().max(1) as f64, "count");
        m.put("chase.steps_per_scan", useful as f64 / scans.max(1) as f64, "ratio");
        terminals
    }

    /// Matcher rung: the Solver's dependency-free test on each pair's
    /// terminals — containment mappings both ways under set semantics,
    /// normalization plus isomorphism under bag and bag-set semantics.
    /// Returns which requests are equivalent.
    fn matcher_rung(
        &mut self,
        m: &mut Metrics,
        terminals: &HashMap<usize, [SoundChased; 2]>,
    ) -> HashMap<usize, bool> {
        let schema = &self.file.schema;
        let (mut hom, mut iso) = (Samples::default(), Samples::default());
        let mut equivalent = HashMap::new();
        for &i in self.order {
            let (sem, _, _) = pair(&self.file.requests[i]);
            let [c1, c2] = &terminals[&i];
            let eq = match (c1.failed, c2.failed) {
                (true, true) => true,
                (true, false) | (false, true) => false,
                (false, false) => match sem {
                    Semantics::Set => {
                        let t = Instant::now();
                        let fwd = containment_mapping(&c2.query, &c1.query);
                        let bwd = containment_mapping(&c1.query, &c2.query);
                        hom.push(us(t.elapsed()));
                        fwd.is_some() && bwd.is_some()
                    }
                    Semantics::Bag | Semantics::BagSet => {
                        let t = Instant::now();
                        let (n1, n2) = if sem == Semantics::Bag {
                            let is_set = |p| schema.is_set_valued(p);
                            (
                                dedup_set_valued(&c1.query, is_set),
                                dedup_set_valued(&c2.query, is_set),
                            )
                        } else {
                            (
                                canonical_representation(&c1.query),
                                canonical_representation(&c2.query),
                            )
                        };
                        let found = find_isomorphism(&n1, &n2).is_some();
                        iso.push(us(t.elapsed()));
                        found
                    }
                },
            };
            equivalent.insert(i, eq);
        }
        self.engine_us += hom.sum() + iso.sum();
        m.put("matcher.hom_us_p50", hom.p50(), "us");
        m.put("matcher.iso_us_p50", iso.p50(), "us");
        m.put("matcher.iso_us_p99", iso.p99(), "us");
        equivalent
    }

    /// Evidence rung: the counterexample search on every inequivalent pair,
    /// its query chases run directly. Returns each request's chase probes.
    fn core_rung(
        &mut self,
        m: &mut Metrics,
        equivalent: &HashMap<usize, bool>,
    ) -> HashMap<usize, Vec<(Semantics, CqQuery)>> {
        let f = self.file;
        let (mut times, mut found) = (Samples::default(), 0usize);
        let mut probes = HashMap::new();
        for &i in self.order {
            if equivalent[&i] {
                continue;
            }
            let (sem, q1, q2) = pair(&f.requests[i]);
            let chaser = RecordingChaser {
                sigma_reg: Arc::clone(&self.sigma_reg),
                probes: Mutex::default(),
            };
            let t = Instant::now();
            let db = separating_database_via(&chaser, sem, q1, q2, &f.sigma, &f.schema, &f.config);
            times.push(us(t.elapsed()));
            found += usize::from(db.is_some());
            probes.entry(i).or_insert_with(|| chaser.probes.into_inner().expect("not poisoned"));
        }
        self.engine_us += times.sum();
        m.put("core.cex_us_p50", times.p50(), "us");
        m.put("core.cex_us_p99", times.p99(), "us");
        m.put("core.cex_found_ratio", found as f64 / times.len().max(1) as f64, "ratio");
        probes
    }

    /// Cache rung: every chase probe the Solver makes for the stream, in
    /// stream order, through `ChaseCache::chase_keyed_attributed`.
    fn cache_rung(
        &mut self,
        m: &mut Metrics,
        equivalent: &HashMap<usize, bool>,
        cex_probes: &HashMap<usize, Vec<(Semantics, CqQuery)>>,
    ) {
        let f = self.file;
        let mut probes: Vec<(Semantics, &CqQuery)> = Vec::new();
        for &i in self.order {
            let (sem, q1, q2) = pair(&f.requests[i]);
            probes.push((sem, q1));
            probes.push((sem, q2));
            if !equivalent[&i] {
                probes.extend(cex_probes[&i].iter().map(|(s, q)| (*s, q)));
            }
        }
        let ctx: HashMap<Semantics, ChaseContext> =
            [Semantics::Set, Semantics::Bag, Semantics::BagSet]
                .into_iter()
                .map(|s| (s, ChaseContext::new(s, &self.sigma_reg, &f.schema, &f.config)))
                .collect();
        let t = Instant::now();
        let (cache, dir) = self.state.open(&mut self.fresh_seq);
        let open_ms = t.elapsed().as_secs_f64() * 1e3;
        let probe = |sem: Semantics, q: &CqQuery| {
            let t = Instant::now();
            let (r, outcome) = cache.chase_keyed_attributed(
                &ctx[&sem],
                &self.sigma_reg,
                sem,
                q,
                &f.schema,
                &f.config,
                &EngineOpts::default(),
            );
            r.expect("benchmark chases terminate within budget");
            (us(t.elapsed()), outcome)
        };
        if matches!(self.state, CacheState::Warm) {
            for &(sem, q) in &probes {
                probe(sem, q);
            }
        }
        let before = cache.stats();
        let (mut hit, mut miss, mut disk) =
            (Samples::default(), Samples::default(), Samples::default());
        let mut mem_hits = 0u64;
        for &(sem, q) in &probes {
            let (t, outcome) = probe(sem, q);
            match outcome {
                CacheOutcome::MemoryHit => {
                    mem_hits += 1;
                    hit.push(t);
                }
                CacheOutcome::DiskHit => {
                    hit.push(t);
                    disk.push(t);
                }
                CacheOutcome::Miss => miss.push(t),
            }
        }
        let after = cache.stats();
        let p = after.persist;
        drop(cache);
        m.put("cache.hit_ratio", hit.len() as f64 / probes.len().max(1) as f64, "ratio");
        m.put("cache.mem_hits", mem_hits as f64, "count");
        m.put("cache.misses", miss.len() as f64, "count");
        m.put("cache.evictions", (after.evictions - before.evictions) as f64, "count");
        m.put("cache.entries", after.entries as f64, "count");
        m.put("cache.hit_us_p50", hit.p50(), "us");
        m.put("cache.hit_us_p99", hit.p99(), "us");
        m.put("cache.miss_us_p50", miss.p50(), "us");
        m.put("persist.disk_hits", disk.len() as f64, "count");
        m.put("persist.disk_hit_us_p50", disk.p50(), "us");
        m.put("persist.disk_hit_us_p99", disk.p99(), "us");
        m.put("persist.open_ms", open_ms, "ms");
        m.put("persist.appended", (p.appended - before.persist.appended) as f64, "count");
        m.put("persist.snapshots", (p.snapshots - before.persist.snapshots) as f64, "count");
        let records = p.loaded + p.recovered + p.appended;
        let bytes = dir.as_deref().map(stored_bytes).unwrap_or(0);
        m.put("persist.log_bytes_per_record", bytes as f64 / records.max(1) as f64, "B");
        m.put("persist.io_errors", p.io_errors as f64, "count");
    }

    /// A Solver over the workload's cache state; the warm state is warmed
    /// with one untimed `decide_all` pass over the distinct requests.
    /// Returns it with the microseconds `build` took (Σ regularization and
    /// context keys).
    fn solver(&mut self, threads: usize, traced: bool) -> (Solver, f64) {
        let f = self.file;
        let (cache, _) = self.state.open(&mut self.fresh_seq);
        let t = Instant::now();
        let mut builder = Solver::builder(f.sigma.clone(), f.schema.clone())
            .chase_config(f.config)
            .cache(Arc::new(cache))
            .threads(threads);
        if traced {
            builder = builder.trace_sink(Arc::new(VecSink::new()));
        }
        let solver = builder.build();
        let build_us = us(t.elapsed());
        if matches!(self.state, CacheState::Warm) {
            let mut distinct: Vec<usize> = self.order.to_vec();
            distinct.sort_unstable();
            distinct.dedup();
            let warm: Vec<Request> = distinct.iter().map(|&i| f.requests[i].clone()).collect();
            solver.decide_all(&warm);
        }
        (solver, build_us)
    }

    /// Single-thread `Solver::decide` over the stream; every verdict is
    /// checked.
    fn decide_rung(&mut self, m: &mut Metrics) -> Expected {
        let (solver, build_us) = self.solver(1, false);
        let mut times = Samples::default();
        let mut expected = Expected::default();
        for &i in self.order {
            let t = Instant::now();
            let verdict = solver.decide(&self.file.requests[i]);
            times.push(us(t.elapsed()));
            expected.record(self.file, i, &verdict);
        }
        // The share of single-thread decide time that the engine, matcher
        // and counterexample rungs account for.
        m.put("ladder.engine_share", self.engine_us / times.sum(), "ratio");
        m.put("solver.decide_us_p50", times.p50(), "us");
        m.put("solver.decide_us_p99", times.p99(), "us");
        m.put("solver.regularize_us", build_us, "us");
        expected
    }

    /// `decide_all` on two threads, untraced and then with a trace sink.
    fn pool_rungs(&mut self, m: &mut Metrics) -> Samples {
        let requests: Vec<Request> =
            self.order.iter().map(|&i| self.file.requests[i].clone()).collect();
        let mut run = |traced: bool| {
            let (solver, _) = self.solver(2, traced);
            let service = Mutex::new(Samples::default());
            let phases = Mutex::new((Samples::default(), Samples::default()));
            let t = Instant::now();
            solver.decide_all_streaming(&requests, &BatchOptions::default(), &|c| {
                service.lock().expect("no panics while held").push(us(c.stats.wall));
                if let Some(p) = c.phase_us {
                    let mut ph = phases.lock().expect("no panics while held");
                    ph.0.push(p[0] as f64);
                    ph.1.push(p[4] as f64);
                }
            });
            let wall = t.elapsed().as_secs_f64();
            let s = solver.stats();
            let counters = [s.shed, s.retries, s.panics];
            let service = service.into_inner().expect("no panics while held");
            (wall, service, phases.into_inner().expect("no panics while held"), counters)
        };
        // Untraced and traced runs alternate, at least one pair and more
        // while they are quick, and the overhead compares median walls.
        let (mut walls, mut traced_walls) = (Samples::default(), Samples::default());
        let started = Instant::now();
        let (wall, service, _, [shed, retries, panics]) = run(false);
        walls.push(wall);
        let (traced_wall, _, (queue, evidence), _) = run(true);
        traced_walls.push(traced_wall);
        while walls.len() < POOL_PAIRS && started.elapsed() < POOL_REPEAT_BUDGET {
            walls.push(run(false).0);
            traced_walls.push(run(true).0);
        }
        let (wall, traced_wall) = (walls.p50(), traced_walls.p50());
        m.put("solver.pool_qps", requests.len() as f64 / wall, "1/s");
        m.put("solver.queue_us_p99", queue.p99(), "us");
        m.put("solver.evidence_us_p99", evidence.p99(), "us");
        m.put("solver.shed", shed as f64, "count");
        m.put("solver.retries", retries as f64, "count");
        m.put("solver.panics", panics as f64, "count");
        m.put("solver.trace_overhead_frac", traced_wall / wall - 1.0, "ratio");
        service
    }
}

/// Bytes of records held by a cache directory (log plus snapshot, less
/// their file headers).
fn stored_bytes(dir: &Path) -> u64 {
    ["log.eqc", "snapshot.eqc"]
        .iter()
        .filter_map(|f| std::fs::metadata(dir.join(f)).ok())
        .map(|md| md.len().saturating_sub(eqsql_service::cache::persist::FILE_HEADER_LEN as u64))
        .sum()
}
