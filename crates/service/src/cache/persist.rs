//! Disk persistence for the chase-result cache: an append-only checksummed
//! record log, periodic compacted snapshots, and corruption-tolerant
//! startup recovery.
//!
//! ## Why a log is enough
//!
//! Chase results are **immutable terminal objects**: once `(Q, Σ, budgets)`
//! has chased to termination (or to a deterministic budget error), that
//! outcome never changes. There are no in-place updates, so no WAL
//! discipline, no page management, no fsync ordering protocol — an
//! append-only log of self-validating records plus an occasional compacted
//! snapshot covers every durability need the cache has. Losing the tail of
//! the log is *always safe*: the worst case is re-paying a chase.
//!
//! ## On-disk format
//!
//! Both files (`log.eqc`, `snapshot.eqc`) share one layout:
//!
//! ```text
//! file   := magic[8] version[u32 le] record*
//! record := body_len[u32 le] checksum[u64 le, FNV-1a over body] body
//! ```
//!
//! A record body serializes the full cache entry **by structure, never by
//! hash**, in two parts:
//!
//! ```text
//! body    := context entry
//! context := semantics reserved max_steps max_atoms set_valued_names sigma
//! entry   := representative_query outcome
//! ```
//!
//! The context part is the key material (semantics, budgets, sorted
//! set-valued relation names, the regularized Σ as tgd/egd trees). The
//! `reserved` byte is always 0; it keeps the layout of files written when
//! it flagged an engine mode, and a record holding any other value is
//! refused as invalid (no live probe could match it). The entry part is
//! the representative query and the outcome — a terminal chase (terminal
//! query, failure flag, step count, accumulated renaming) or a cacheable
//! [`ChaseError`] via its stable wire code.
//! Symbols are stored as name strings and re-interned on decode (interner
//! ids are process-local); substitutions are stored in sorted order, so
//! encoding is byte-deterministic and fixtures are reproducible.
//! Fingerprints are **recomputed** from the decoded material on load — a
//! stored hash could silently diverge from the live hashing recipe, a
//! recomputed one cannot.
//!
//! ## One decode per context
//!
//! Every record repeats its context, and decoding one — Σ's trees, its
//! rendering, its fingerprint — costs far more than the entry part. The
//! tier therefore keeps a **context table**: each distinct context is
//! decoded once, when recovery first meets it or when a live append
//! brings it, and is stored with its exact encoded bytes. Recovery skips
//! the context decode of any record whose body starts with the bytes of a
//! context already in the table (the encoding is self-delimiting, so a
//! byte-equal prefix *is* that context). Each index location records its
//! context's table id and the body offset where its entry part starts, so
//! a hit never decodes a context. The table lives as long as the tier and
//! holds at most one context per indexed record; a store written by one
//! solver holds one per semantics and budget it was asked under.
//!
//! ## Serving a hit
//!
//! The tier's one mutex guards the index, the context table, the file
//! handles and the append bookkeeping. Appends and compaction hold it
//! throughout; a lookup holds it only to find the key, drop candidates
//! whose table context is not [`ChaseContext::same`] as the probe's, and
//! read the remaining frames. Everything after runs outside the lock, so
//! concurrent disk hits overlap, and a compaction may swap the index and
//! truncate the log meanwhile without touching frames already read.
//! Before a frame is served, the hit re-verifies it, since the file may
//! have been altered after it was validated:
//!
//! 1. its length field still matches and its body still begins with the
//!    exact bytes of the context the index filtered on (**context
//!    equality**, byte for byte);
//! 2. its **checksum** still matches — continued from the context's own
//!    checksum, so only the entry part is hashed;
//! 3. its **entry part decodes** (representative and outcome);
//! 4. [`find_isomorphism`] maps the probe onto the representative.
//!
//! A frame failing 1–3 is a corruption event: the probe misses, the
//! `discarded` counter ([`PersistStats`]) counts it, and the location is
//! dropped from the index. Compaction re-verifies 1–2 on every frame and
//! copies frames verbatim, so an altered frame is dropped there too,
//! never re-checksummed into a snapshot.
//!
//! ## Recovery guarantees
//!
//! Startup recovery never fails on hostile *content*: it validates every
//! record (length bounds, checksum, full structural decode) and stops at
//! the first invalid one, keeping exactly the valid prefix. A torn tail is
//! truncated from the log (snapshots are never rewritten in place — an
//! invalid snapshot tail is simply not indexed); a file with a bad header
//! is discarded wholesale. Each corruption event increments the
//! `discarded` counter ([`PersistStats`]). Because every admitted record
//! re-enters through the same confirm path as a live probe — exact
//! [`ChaseContext::same`] equality plus `find_isomorphism` — recovery can
//! *never* admit an entry a fresh solver would decide differently: a
//! forged-but-checksummed record either fails to decode, fails to match,
//! or is a genuine `(Q, Σ)` terminal.
//!
//! Only genuine I/O environment errors (an uncreatable directory, an
//! unopenable file) surface as `Err` from
//! [`ChaseCache::open`](crate::ChaseCache::open).
//!
//! ## Single writer, enforced
//!
//! The append-only discipline assumes **one writer per directory**: two
//! processes appending to one `log.eqc` would interleave frames and each
//! would truncate the other's tail at the next recovery. A writable open
//! therefore takes a `writer.lock` file in the cache dir — created with
//! `O_EXCL` and holding the owner's pid — and releases it on drop. A
//! second writable open (say, a double-started server over the same
//! `--cache-dir`) fails fast with an I/O error naming the live owner. A
//! lock whose pid no longer runs is *stale* (the owner crashed before
//! its `Drop`): it is silently reclaimed, because the log format already
//! tolerates whatever torn tail the dead writer left. Read-only opens
//! ([`PersistConfig::read_only`] — replicas over a shared warm store)
//! neither take nor respect the lock; they never write, so they are safe
//! alongside any writer.

use super::{lock_recovering, StoredChase, StoredOutcome};
use crate::canon::{cache_key, query_fingerprint, ChaseContext};
use eqsql_chase::ChaseError;
use eqsql_cq::{find_isomorphism, Atom, CqQuery, Subst, Term, Value, Var, R64};
use eqsql_deps::{Dependency, DependencySet, Egd, Tgd};
use eqsql_relalg::Semantics;
use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Magic prefix of the append-only record log (`log.eqc`).
pub const LOG_MAGIC: [u8; 8] = *b"EQSQLOG1";
/// Magic prefix of the compacted snapshot (`snapshot.eqc`).
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"EQSNAP01";
/// On-disk format version, bumped on any layout change.
pub const FORMAT_VERSION: u32 = 1;
/// Bytes of file header: magic plus little-endian version.
pub const FILE_HEADER_LEN: usize = 12;
/// Bytes of per-record framing: little-endian body length plus checksum.
pub const FRAME_HEADER_LEN: usize = 12;

const LOG_FILE: &str = "log.eqc";
const SNAPSHOT_FILE: &str = "snapshot.eqc";
/// Single-writer guard (see the module docs): created with `O_EXCL`,
/// holds the owning pid, removed on [`PersistTier`] drop.
const LOCK_FILE: &str = "writer.lock";

/// FNV-1a over `bytes` — the per-record checksum. Not cryptographic: it
/// guards against torn writes and bit rot, while decode-level validation
/// and the cache's exact-match confirm path guard against everything else.
pub fn checksum(bytes: &[u8]) -> u64 {
    checksum_from(0xCBF2_9CE4_8422_2325, bytes)
}

/// Continues [`checksum`] across `rest` from `prefix`, the checksum of
/// the bytes before it: `checksum_from(checksum(a), b) == checksum(a ++ b)`.
fn checksum_from(prefix: u64, rest: &[u8]) -> u64 {
    let mut h = prefix;
    for &b in rest {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Configuration of the persistence tier, carried inside
/// [`super::CacheConfig::persist`].
#[derive(Clone, Debug)]
pub struct PersistConfig {
    /// Directory holding `log.eqc` and `snapshot.eqc` (created if absent,
    /// unless read-only).
    pub dir: PathBuf,
    /// Compact a snapshot after this many appends since the last one;
    /// `0` disables snapshotting (the log grows unboundedly).
    pub snapshot_every: usize,
    /// Serve disk hits but never write: no appends, no snapshots, no
    /// recovery truncation. For read replicas over a shared warm store.
    pub read_only: bool,
    /// Deterministic write-fault injection (test hook), mirroring the
    /// engine's [`eqsql_chase::FaultPlan`] idiom.
    pub fault: Option<PersistFault>,
}

impl PersistConfig {
    /// A writable tier rooted at `dir` with default snapshot cadence.
    pub fn at(dir: impl Into<PathBuf>) -> PersistConfig {
        PersistConfig { dir: dir.into(), snapshot_every: 512, read_only: false, fault: None }
    }
}

/// Deterministic writer-death injection: on the `at_append`th append
/// (1-based) the tier writes only the first `keep_bytes` bytes of the
/// framed record and then goes permanently silent — exactly the disk state
/// a process killed mid-`write` leaves behind. The in-memory tier keeps
/// working; only durability stops, as it would for the dead writer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PersistFault {
    /// 1-based index of the append at which the writer "dies".
    pub at_append: u64,
    /// Bytes of the framed record that make it to disk before death.
    pub keep_bytes: usize,
}

/// Point-in-time counters of the persistence tier, surfaced through
/// [`super::CacheStats::persist`] and `Solver::stats()`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// Records admitted from the snapshot at startup.
    pub loaded: u64,
    /// Records admitted by replaying the log tail at startup.
    pub recovered: u64,
    /// Corruption events survived: invalid tails truncated or whole files
    /// with unreadable headers skipped at startup (one count per event —
    /// everything past the first invalid byte is untrusted by design, so
    /// individual lost records are uncountable), and indexed frames found
    /// altered since by a disk hit or a compaction (one count per frame).
    pub discarded: u64,
    /// Snapshot compactions performed.
    pub snapshots: u64,
    /// Records appended to the log (complete, flushed writes only).
    pub appended: u64,
    /// Memory-tier misses answered from disk (also counted as cache hits).
    pub disk_hits: u64,
    /// I/O errors observed after open; the first one stops further writes.
    pub io_errors: u64,
}

/// One persisted cache entry, the unit of [`encode_record`] /
/// [`decode_record`]: the exact context key material, the regularized Σ it
/// renders from, the representative query, and the terminal outcome.
#[derive(Clone, Debug)]
pub struct PersistRecord {
    /// The context key. Its `sigma_text` must be the rendering of `sigma`
    /// (live cache entries satisfy this by construction; decode
    /// re-derives the text from the decoded structure).
    pub ctx: ChaseContext,
    /// The regularized Σ, stored structurally — text round-tripping
    /// through the parser is not injective for every constant shape.
    pub sigma: Arc<DependencySet>,
    /// The representative query the outcome is expressed over.
    pub representative: CqQuery,
    /// Terminal chase or cacheable terminal error.
    pub outcome: Result<PersistedChase, ChaseError>,
}

/// The serializable shape of a terminal chase result (the persisted half
/// of the cache's stored entry; the trace is diagnostics and is not
/// persisted, matching the in-memory tier).
#[derive(Clone, Debug)]
pub struct PersistedChase {
    /// Terminal query, over the representative's variables.
    pub query: CqQuery,
    /// Did an egd fail (query unsatisfiable under Σ)?
    pub failed: bool,
    /// Chase steps taken.
    pub steps: usize,
    /// Accumulated renaming (input to assignment fixing).
    pub renaming: Subst,
}

/// A structural decode failure: byte offset reached and why.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecodeError {
    /// Offset into the record body at which decoding stopped.
    pub offset: usize,
    /// Static description of the violated invariant.
    pub reason: &'static str,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid record at body offset {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for DecodeError {}

fn sem_tag(sem: Semantics) -> u8 {
    match sem {
        Semantics::Set => 0,
        Semantics::Bag => 1,
        Semantics::BagSet => 2,
    }
}

fn sem_from_tag(tag: u8) -> Option<Semantics> {
    match tag {
        0 => Some(Semantics::Set),
        1 => Some(Semantics::Bag),
        2 => Some(Semantics::BagSet),
        _ => None,
    }
}

// Term tags. Part of the on-disk format: never renumber.
const TERM_VAR: u8 = 0;
const TERM_INT: u8 = 1;
const TERM_REAL: u8 = 2;
const TERM_STR: u8 = 3;
const TERM_LABELED: u8 = 4;

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, b: u8) {
        self.buf.push(b);
    }

    fn u32v(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64v(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u32v(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn term(&mut self, t: &Term) {
        match t {
            Term::Var(v) => {
                self.u8(TERM_VAR);
                self.str(v.name());
            }
            Term::Const(Value::Int(i)) => {
                self.u8(TERM_INT);
                self.u64v(*i as u64);
            }
            Term::Const(Value::Real(r)) => {
                self.u8(TERM_REAL);
                self.u64v(r.get().to_bits());
            }
            Term::Const(Value::Str(s)) => {
                self.u8(TERM_STR);
                self.str(s.as_str());
            }
            Term::Const(Value::Labeled(l)) => {
                self.u8(TERM_LABELED);
                self.u64v(*l);
            }
        }
    }

    fn terms(&mut self, ts: &[Term]) {
        self.u32v(ts.len() as u32);
        for t in ts {
            self.term(t);
        }
    }

    fn atom(&mut self, a: &Atom) {
        self.str(a.pred.name());
        self.terms(&a.args);
    }

    fn atoms(&mut self, atoms: &[Atom]) {
        self.u32v(atoms.len() as u32);
        for a in atoms {
            self.atom(a);
        }
    }

    fn query(&mut self, q: &CqQuery) {
        self.str(q.name.as_str());
        self.terms(&q.head);
        self.atoms(&q.body);
    }

    fn dependency(&mut self, d: &Dependency) {
        match d {
            Dependency::Tgd(t) => {
                self.u8(0);
                self.atoms(&t.lhs);
                self.atoms(&t.rhs);
            }
            Dependency::Egd(e) => {
                self.u8(1);
                self.atoms(&e.lhs);
                self.term(&e.eq.0);
                self.term(&e.eq.1);
            }
        }
    }

    /// The context part of a body: the key material besides the query.
    fn context(&mut self, ctx: &ChaseContext, sigma: &DependencySet) {
        self.u8(sem_tag(ctx.sem()));
        self.u8(0); // reserved
        self.u64v(ctx.max_steps() as u64);
        self.u64v(ctx.max_atoms() as u64);
        self.u32v(ctx.set_valued().len() as u32);
        for name in ctx.set_valued() {
            self.str(name);
        }
        self.u32v(sigma.as_slice().len() as u32);
        for d in sigma.iter() {
            self.dependency(d);
        }
    }

    /// The entry part of a body: the representative query and its outcome.
    fn entry(&mut self, representative: &CqQuery, outcome: &Result<PersistedChase, ChaseError>) {
        self.query(representative);
        match outcome {
            Ok(chase) => {
                self.u8(0);
                self.query(&chase.query);
                self.u8(chase.failed as u8);
                self.u64v(chase.steps as u64);
                let pairs = chase.renaming.sorted_pairs();
                self.u32v(pairs.len() as u32);
                for (v, t) in pairs {
                    self.str(v.name());
                    self.term(&t);
                }
            }
            Err(err) => {
                let (code, magnitude) =
                    err.wire().expect("only cacheable outcomes may be persisted");
                self.u8(code);
                self.u64v(magnitude);
            }
        }
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn fail<T>(&self, reason: &'static str) -> Result<T, DecodeError> {
        Err(DecodeError { offset: self.pos, reason })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() - self.pos < n {
            return self.fail("truncated");
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32v(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64v(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A string borrowed from the body: names are interned straight from
    /// it, never copied first.
    fn str(&mut self) -> Result<&'a str, DecodeError> {
        let n = self.u32v()? as usize;
        let bytes = self.take(n)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s),
            Err(_) => self.fail("invalid utf-8"),
        }
    }

    fn term(&mut self) -> Result<Term, DecodeError> {
        match self.u8()? {
            TERM_VAR => Ok(Term::Var(Var::new(self.str()?))),
            TERM_INT => Ok(Term::Const(Value::Int(self.u64v()? as i64))),
            TERM_REAL => {
                let bits = self.u64v()?;
                let f = f64::from_bits(bits);
                if f.is_nan() {
                    return self.fail("NaN real");
                }
                Ok(Term::Const(Value::Real(R64::new(f))))
            }
            TERM_STR => Ok(Term::Const(Value::str(self.str()?))),
            TERM_LABELED => Ok(Term::Const(Value::Labeled(self.u64v()?))),
            _ => self.fail("unknown term tag"),
        }
    }

    fn terms(&mut self) -> Result<Vec<Term>, DecodeError> {
        let n = self.u32v()? as usize;
        let mut out = Vec::new();
        for _ in 0..n {
            out.push(self.term()?);
        }
        Ok(out)
    }

    fn atom(&mut self) -> Result<Atom, DecodeError> {
        let pred = self.str()?;
        if pred.is_empty() {
            return self.fail("empty predicate name");
        }
        let args = self.terms()?;
        Ok(Atom::new(pred, args))
    }

    fn atoms(&mut self) -> Result<Vec<Atom>, DecodeError> {
        let n = self.u32v()? as usize;
        let mut out = Vec::new();
        for _ in 0..n {
            out.push(self.atom()?);
        }
        Ok(out)
    }

    fn query(&mut self) -> Result<CqQuery, DecodeError> {
        let name = self.str()?;
        if name.is_empty() {
            return self.fail("empty query name");
        }
        let head = self.terms()?;
        let body = self.atoms()?;
        Ok(CqQuery::new(name, head, body))
    }

    fn dependency(&mut self) -> Result<Dependency, DecodeError> {
        match self.u8()? {
            0 => {
                let lhs = self.atoms()?;
                let rhs = self.atoms()?;
                Ok(Dependency::Tgd(Tgd::new(lhs, rhs)))
            }
            1 => {
                let lhs = self.atoms()?;
                let a = self.term()?;
                let b = self.term()?;
                Ok(Dependency::Egd(Egd::new(lhs, a, b)))
            }
            _ => self.fail("unknown dependency tag"),
        }
    }

    fn finish(&self) -> Result<(), DecodeError> {
        if self.pos != self.buf.len() {
            return self.fail("trailing bytes");
        }
        Ok(())
    }

    /// Decodes a context part, rebuilding the context key with the live
    /// fingerprint recipe — the expensive half of a record: Σ's trees,
    /// their rendering, and the hash over it.
    fn context(&mut self) -> Result<(ChaseContext, Arc<DependencySet>), DecodeError> {
        let sem = match sem_from_tag(self.u8()?) {
            Some(s) => s,
            None => return self.fail("unknown semantics tag"),
        };
        if self.u8()? != 0 {
            return self.fail("nonzero reserved byte");
        }
        let max_steps = self.u64v()? as usize;
        let max_atoms = self.u64v()? as usize;
        let n = self.u32v()? as usize;
        let mut set_valued: Vec<String> = Vec::new();
        for _ in 0..n {
            let name = self.str()?.to_string();
            if name.is_empty() {
                return self.fail("empty relation name");
            }
            if let Some(prev) = set_valued.last() {
                if *prev >= name {
                    // Live contexts sort this list; an unsorted one could
                    // never match a probe and marks the record as
                    // forged/corrupt.
                    return self.fail("set-valued names not sorted");
                }
            }
            set_valued.push(name);
        }
        let n = self.u32v()? as usize;
        let mut deps = Vec::new();
        for _ in 0..n {
            deps.push(self.dependency()?);
        }
        let sigma = Arc::new(DependencySet::from_vec(deps));
        let ctx = ChaseContext::from_parts(
            sem,
            sigma.to_string().into(),
            set_valued.into(),
            max_steps,
            max_atoms,
        );
        Ok((ctx, sigma))
    }

    /// Decodes an entry part, which must run to the end of the body.
    fn entry(&mut self) -> Result<DecodedEntry, DecodeError> {
        let representative = self.query()?;
        let outcome = match self.u8()? {
            0 => {
                let query = self.query()?;
                let failed = match self.u8()? {
                    0 => false,
                    1 => true,
                    _ => return self.fail("invalid failure flag"),
                };
                let steps = self.u64v()? as usize;
                let n = self.u32v()? as usize;
                let mut pairs = Vec::new();
                for _ in 0..n {
                    let name = self.str()?;
                    if name.is_empty() {
                        return self.fail("empty variable name");
                    }
                    let term = self.term()?;
                    pairs.push((Var::new(name), term));
                }
                Ok(PersistedChase { query, failed, steps, renaming: Subst::from_pairs(pairs) })
            }
            code => {
                let magnitude = self.u64v()?;
                match ChaseError::from_wire(code, magnitude) {
                    Some(err) => Err(err),
                    None => return self.fail("unknown outcome tag"),
                }
            }
        };
        self.finish()?;
        Ok((representative, outcome))
    }
}

/// A decoded entry part: the representative query and its outcome.
type DecodedEntry = (CqQuery, Result<PersistedChase, ChaseError>);

/// Serializes `record` to a body (unframed — see [`frame_record`]).
///
/// Byte-deterministic: substitutions are written in sorted order and every
/// other sequence preserves its (deterministic) structural order, so the
/// same record always yields the same bytes and committed fixtures are
/// reproducible.
///
/// # Panics
///
/// If the outcome is a transient (non-cacheable) error — the persistence
/// gate is the same [`ChaseError::is_cacheable`] line the in-memory tier
/// enforces, and callers must not cross it.
pub fn encode_record(record: &PersistRecord) -> Vec<u8> {
    debug_assert_eq!(
        record.ctx.sigma_text().as_ref(),
        record.sigma.to_string(),
        "PersistRecord: ctx.sigma_text must render record.sigma"
    );
    let mut e = Enc { buf: Vec::new() };
    e.context(&record.ctx, &record.sigma);
    e.entry(&record.representative, &record.outcome);
    e.buf
}

/// Deserializes a record body, validating every structural invariant the
/// encoder maintains (tags, the zero reserved byte, utf-8, sortedness of
/// the set-valued list, non-empty names, no trailing bytes). The context
/// fingerprint is recomputed from the decoded material, never read from
/// disk.
pub fn decode_record(body: &[u8]) -> Result<PersistRecord, DecodeError> {
    let mut d = Dec { buf: body, pos: 0 };
    let (ctx, sigma) = d.context()?;
    let (representative, outcome) = d.entry()?;
    Ok(PersistRecord { ctx, sigma, representative, outcome })
}

/// Frames a record body for appending: length, checksum, body.
pub fn frame_record(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&checksum(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// The 12-byte file header for the given magic.
pub fn file_header(magic: &[u8; 8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FILE_HEADER_LEN);
    out.extend_from_slice(magic);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out
}

/// One distinct chase context of a tier, decoded once (see the module
/// docs): the exact bytes of its context part and what they decode to.
struct TierContext {
    /// The encoded context part, as it prefixes every body that uses it.
    bytes: Box<[u8]>,
    /// [`checksum`] of `bytes`: a body starting with them is checksummed
    /// from here, hashing its entry part only.
    sum: u64,
    ctx: ChaseContext,
    /// The decoded regularized Σ, shared by every entry served from disk
    /// under this context, as live entries share theirs.
    sigma: Arc<DependencySet>,
}

/// The tier's distinct contexts; [`Loc::ctx`] indexes `entries`.
#[derive(Default)]
struct ContextTable {
    entries: Vec<Arc<TierContext>>,
}

impl TierContext {
    /// [`checksum`] of a body that starts with this context's bytes.
    fn body_checksum(&self, body: &[u8]) -> u64 {
        checksum_from(self.sum, &body[self.bytes.len()..])
    }
}

impl ContextTable {
    /// The id of the known context whose encoded bytes prefix `body` (the
    /// encoding is self-delimiting, so that is `body`'s own context).
    fn find(&self, body: &[u8]) -> Option<usize> {
        self.entries.iter().position(|c| body.starts_with(&c.bytes))
    }

    /// Decodes `body`'s context part into a new table entry.
    fn add(&mut self, body: &[u8]) -> Result<usize, DecodeError> {
        let mut d = Dec { buf: body, pos: 0 };
        let (ctx, sigma) = d.context()?;
        let bytes: Box<[u8]> = body[..d.pos].into();
        let sum = checksum(&bytes);
        self.entries.push(Arc::new(TierContext { bytes, sum, ctx, sigma }));
        Ok(self.entries.len() - 1)
    }
}

/// Where an indexed record lives on disk, and under which context.
#[derive(Clone, Copy, Debug)]
struct Loc {
    /// In the snapshot (`true`) or the log (`false`).
    snap: bool,
    /// Frame start offset.
    off: u64,
    /// Body length (frame length minus [`FRAME_HEADER_LEN`]).
    len: u32,
    /// The record's context in [`TierState::contexts`].
    ctx: u32,
    /// Body offset where the entry part starts (the context part's length).
    entry_off: u32,
}

/// Reads the whole frame (header and body) at `loc` from `file`.
fn read_frame(file: &mut Option<File>, loc: Loc) -> io::Result<Vec<u8>> {
    let file = file.as_mut().ok_or_else(|| io::Error::from(io::ErrorKind::NotFound))?;
    file.seek(SeekFrom::Start(loc.off))?;
    let mut frame = vec![0u8; FRAME_HEADER_LEN + loc.len as usize];
    file.read_exact(&mut frame)?;
    Ok(frame)
}

/// Does `frame`, read at `loc`, still hold what was validated when it was
/// indexed: its length, `context`'s exact bytes, and its checksum?
fn frame_intact(frame: &[u8], loc: Loc, context: &TierContext) -> bool {
    let (header, body) = frame.split_at(FRAME_HEADER_LEN);
    header[..4] == loc.len.to_le_bytes()
        && body.get(..loc.entry_off as usize) == Some(&context.bytes[..])
        && header[4..] == context.body_checksum(body).to_le_bytes()
}

/// Decodes the entry part of `body`, which starts at `entry_off`.
fn decode_entry(body: &[u8], entry_off: u32) -> Result<DecodedEntry, DecodeError> {
    Dec { buf: body, pos: entry_off as usize }.entry()
}

struct ScanOutcome {
    /// `(key, loc)` of every valid record, in file order.
    locs: Vec<(u64, Loc)>,
    /// Count of valid records.
    records: u64,
    /// End offset of the valid prefix.
    valid_end: u64,
    /// Was the file header readable?
    header_ok: bool,
    /// Were invalid bytes encountered (bad header on a non-empty file, or
    /// an invalid record tail)?
    corrupt: bool,
}

/// Validates `bytes` as a record file: checks the header, then walks
/// records validating length bounds, checksum and a full structural
/// decode, stopping at the first invalid byte. A context part byte-equal
/// to one in `contexts` was validated when it entered the table: it is
/// neither decoded nor hashed again. A new one is decoded and added.
/// Never fails — corruption is an expected input here.
fn scan_file(
    bytes: &[u8],
    magic: &[u8; 8],
    snap: bool,
    contexts: &mut ContextTable,
) -> ScanOutcome {
    let header_ok = bytes.len() >= FILE_HEADER_LEN
        && bytes[..8] == *magic
        && bytes[8..FILE_HEADER_LEN] == FORMAT_VERSION.to_le_bytes();
    if !header_ok {
        return ScanOutcome {
            locs: Vec::new(),
            records: 0,
            valid_end: 0,
            header_ok,
            corrupt: !bytes.is_empty(),
        };
    }
    let mut locs = Vec::new();
    let mut pos = FILE_HEADER_LEN;
    let mut corrupt = false;
    while pos < bytes.len() {
        if bytes.len() - pos < FRAME_HEADER_LEN {
            corrupt = true;
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let sum = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap());
        if bytes.len() - pos - FRAME_HEADER_LEN < len {
            corrupt = true;
            break;
        }
        let body = &bytes[pos + FRAME_HEADER_LEN..pos + FRAME_HEADER_LEN + len];
        let known = contexts.find(body);
        let actual = match known {
            Some(id) => contexts.entries[id].body_checksum(body),
            None => checksum(body),
        };
        if actual != sum {
            corrupt = true;
            break;
        }
        let Ok(id) = known.map_or_else(|| contexts.add(body), Ok) else {
            corrupt = true;
            break;
        };
        let context = &contexts.entries[id];
        let entry_off = context.bytes.len() as u32;
        let Ok((representative, _)) = decode_entry(body, entry_off) else {
            corrupt = true;
            break;
        };
        let key = cache_key(query_fingerprint(&representative), context.ctx.fingerprint());
        let loc = Loc { snap, off: pos as u64, len: len as u32, ctx: id as u32, entry_off };
        locs.push((key, loc));
        pos += FRAME_HEADER_LEN + len;
    }
    ScanOutcome { records: locs.len() as u64, locs, valid_end: pos as u64, header_ok, corrupt }
}

/// A memory-tier miss answered from disk.
pub(crate) struct DiskHit {
    /// The decoded representative — what gets promoted into memory, so the
    /// promoted entry's outcome stays expressed over its own variables.
    pub(crate) representative: CqQuery,
    /// The decoded outcome, rebuilt into the in-memory stored shape.
    pub(crate) outcome: StoredOutcome,
    /// The probe→representative bijection that confirmed the hit.
    pub(crate) map: HashMap<Var, Var>,
}

struct TierState {
    log: Option<File>,
    snap: Option<File>,
    index: HashMap<u64, Vec<Loc>>,
    /// Every context the index refers to, each decoded once.
    contexts: ContextTable,
    /// Bumped whenever compaction replaces `index`: a location read under
    /// an older generation may name a different frame now.
    generation: u64,
    /// Valid length of the log file (next append offset).
    log_len: u64,
    appends_since_snapshot: usize,
    /// Appends attempted (drives [`PersistFault`] triggering).
    appends_seen: u64,
    fault: Option<PersistFault>,
    /// Sticky write-failure flag: one failed write stops all further
    /// writes (the log tail past a failed write cannot be trusted), while
    /// reads and the memory tier continue unharmed.
    broken: bool,
}

/// The disk tier of [`super::ChaseCache`]: an in-memory key → location
/// index over the two record files plus the table of their distinct,
/// already-decoded contexts, consulted on memory-tier misses. A disk hit
/// decodes the entry part only and is promoted into the memory tier
/// (without re-appending).
///
/// One mutex guards the index, the context table and the file handles:
/// appends and compaction hold it throughout, while [`PersistTier::lookup`]
/// holds it only to select and read frames and re-verifies and decodes
/// them after releasing it (see the module docs).
pub(crate) struct PersistTier {
    read_only: bool,
    snapshot_every: usize,
    snapshot_path: PathBuf,
    /// The held `writer.lock`, removed on drop. `None` for read-only
    /// tiers and the [`PersistTier::unavailable`] stub.
    lock_path: Option<PathBuf>,
    state: Mutex<TierState>,
    loaded: AtomicU64,
    recovered: AtomicU64,
    discarded: AtomicU64,
    snapshots: AtomicU64,
    appended: AtomicU64,
    disk_hits: AtomicU64,
    io_errors: AtomicU64,
}

impl Drop for PersistTier {
    fn drop(&mut self) {
        // Release the single-writer lock. Best-effort: if removal fails
        // the lock goes stale and the next writable open reclaims it.
        if let Some(path) = &self.lock_path {
            fs::remove_file(path).ok();
        }
    }
}

/// Whether `pid` names a running process. Linux answers via `/proc`; on
/// other platforms there is no dependency-free check, so every holder is
/// conservatively treated as alive (a crash there leaves a lock that
/// needs manual removal, rather than risking two live writers).
fn pid_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new("/proc").join(pid.to_string()).exists()
    } else {
        true
    }
}

impl PersistTier {
    fn empty(read_only: bool, snapshot_every: usize, snapshot_path: PathBuf) -> PersistTier {
        PersistTier {
            read_only,
            snapshot_every,
            snapshot_path,
            lock_path: None,
            state: Mutex::new(TierState {
                log: None,
                snap: None,
                index: HashMap::new(),
                contexts: ContextTable::default(),
                generation: 0,
                log_len: 0,
                appends_since_snapshot: 0,
                appends_seen: 0,
                fault: None,
                broken: false,
            }),
            loaded: AtomicU64::new(0),
            recovered: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
            appended: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
        }
    }

    /// A permanently-disabled tier, recording that persistence could not
    /// be opened: every lookup misses, every append is dropped, and
    /// `io_errors` is 1 so the degradation is observable in stats.
    pub(crate) fn unavailable() -> PersistTier {
        let tier = PersistTier::empty(true, 0, PathBuf::new());
        lock_recovering(&tier.state).broken = true;
        tier.io_errors.store(1, Ordering::Relaxed);
        tier
    }

    /// Opens (or creates) the tier at `config.dir`, running corruption-
    /// tolerant recovery: index the snapshot, replay the log tail,
    /// truncate the log at the first invalid record. Corrupt *content*
    /// never fails; only environment-level I/O errors do.
    pub(crate) fn open(config: &PersistConfig) -> io::Result<PersistTier> {
        let lock_path = if config.read_only {
            None
        } else {
            fs::create_dir_all(&config.dir)?;
            Some(Self::acquire_writer_lock(&config.dir)?)
        };
        let mut tier = PersistTier::empty(
            config.read_only,
            config.snapshot_every,
            config.dir.join(SNAPSHOT_FILE),
        );
        tier.lock_path = lock_path;
        let log_path = config.dir.join(LOG_FILE);
        let mut state = lock_recovering(&tier.state);
        state.fault = config.fault;

        if tier.snapshot_path.exists() {
            let mut file = File::open(&tier.snapshot_path)?;
            let mut bytes = Vec::new();
            file.read_to_end(&mut bytes)?;
            let scan = scan_file(&bytes, &SNAPSHOT_MAGIC, true, &mut state.contexts);
            for (key, loc) in scan.locs {
                state.index.entry(key).or_default().push(loc);
            }
            tier.loaded.store(scan.records, Ordering::Relaxed);
            if scan.corrupt {
                // Snapshots are replaced atomically, never repaired in
                // place: the invalid tail is simply not indexed.
                tier.discarded.fetch_add(1, Ordering::Relaxed);
            }
            state.snap = Some(file);
        }

        if config.read_only {
            if log_path.exists() {
                let mut file = File::open(&log_path)?;
                let mut bytes = Vec::new();
                file.read_to_end(&mut bytes)?;
                let scan = scan_file(&bytes, &LOG_MAGIC, false, &mut state.contexts);
                for (key, loc) in scan.locs {
                    state.index.entry(key).or_default().push(loc);
                }
                tier.recovered.store(scan.records, Ordering::Relaxed);
                if scan.corrupt {
                    tier.discarded.fetch_add(1, Ordering::Relaxed);
                }
                state.log = Some(file);
                state.log_len = scan.valid_end;
            }
        } else {
            let mut file = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(&log_path)?;
            let mut bytes = Vec::new();
            file.read_to_end(&mut bytes)?;
            if bytes.is_empty() {
                Self::write_at(&mut file, 0, &file_header(&LOG_MAGIC))?;
                state.log_len = FILE_HEADER_LEN as u64;
            } else {
                let scan = scan_file(&bytes, &LOG_MAGIC, false, &mut state.contexts);
                if !scan.header_ok {
                    // The whole file is unreadable: reset it. One
                    // corruption event, zero admitted records.
                    file.set_len(0)?;
                    Self::write_at(&mut file, 0, &file_header(&LOG_MAGIC))?;
                    state.log_len = FILE_HEADER_LEN as u64;
                    tier.discarded.fetch_add(1, Ordering::Relaxed);
                } else {
                    for (key, loc) in scan.locs {
                        state.index.entry(key).or_default().push(loc);
                    }
                    tier.recovered.store(scan.records, Ordering::Relaxed);
                    if scan.corrupt {
                        // Truncate the torn tail so future appends extend a
                        // valid prefix.
                        file.set_len(scan.valid_end)?;
                        tier.discarded.fetch_add(1, Ordering::Relaxed);
                    }
                    state.log_len = scan.valid_end;
                }
            }
            state.log = Some(file);
        }
        drop(state);
        Ok(tier)
    }

    /// Takes the single-writer lock on `dir`: creates `writer.lock` with
    /// `O_EXCL` semantics (`create_new`) and writes this process's pid
    /// into it. If the file already exists, the holder's pid is read
    /// back: a live holder — including this very process, when another
    /// in-process tier owns the dir — is a hard error
    /// (`ErrorKind::AddrInUse`, naming the pid), while a stale lock (the
    /// holder is dead, or the file is unreadable garbage) is removed and
    /// the acquisition retried exactly once (two writers racing for a
    /// stale lock must not both win, and `create_new` arbitrates the
    /// re-creation).
    fn acquire_writer_lock(dir: &Path) -> io::Result<PathBuf> {
        let path = dir.join(LOCK_FILE);
        for attempt in 0..2 {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut file) => {
                    // Best-effort: an unwritable pid only degrades the
                    // liveness check, not the mutual exclusion.
                    let _ = write!(file, "{}", std::process::id());
                    let _ = file.flush();
                    return Ok(path);
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let holder =
                        fs::read_to_string(&path).ok().and_then(|s| s.trim().parse::<u32>().ok());
                    match holder {
                        Some(pid) if pid_alive(pid) => {
                            return Err(io::Error::new(
                                io::ErrorKind::AddrInUse,
                                format!(
                                    "cache dir is locked by live writer pid {pid} \
                                     ({})",
                                    path.display()
                                ),
                            ));
                        }
                        _ if attempt == 0 => {
                            // Stale (dead pid, our own pid, or unreadable):
                            // reclaim and retry through `create_new`.
                            fs::remove_file(&path).ok();
                        }
                        _ => {
                            return Err(io::Error::new(
                                io::ErrorKind::AddrInUse,
                                format!("could not reclaim stale cache lock ({})", path.display()),
                            ));
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
        unreachable!("second acquisition attempt returns on every branch")
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> PersistStats {
        PersistStats {
            loaded: self.loaded.load(Ordering::Relaxed),
            recovered: self.recovered.load(Ordering::Relaxed),
            discarded: self.discarded.load(Ordering::Relaxed),
            snapshots: self.snapshots.load(Ordering::Relaxed),
            appended: self.appended.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            io_errors: self.io_errors.load(Ordering::Relaxed),
        }
    }

    fn write_at(file: &mut File, off: u64, bytes: &[u8]) -> io::Result<()> {
        file.seek(SeekFrom::Start(off))?;
        file.write_all(bytes)?;
        file.flush()
    }

    /// Probes the disk index for `key`, confirming any candidate exactly
    /// like the memory tier does: context `same` equality plus
    /// `find_isomorphism` against the decoded representative.
    ///
    /// The tier lock covers only the index walk, the context filter and
    /// the frame reads. Each frame is then re-verified outside it —
    /// length, context bytes and checksum, then the entry decode — since
    /// the file may have been altered since it was validated; a frame that
    /// fails is a miss, counted in `discarded` and dropped from the index.
    pub(crate) fn lookup(&self, key: u64, ctx: &ChaseContext, q: &CqQuery) -> Option<DiskHit> {
        let (generation, frames) = {
            let mut state = lock_recovering(&self.state);
            let TierState { log, snap, index, contexts, generation, .. } = &mut *state;
            let mut frames = Vec::new();
            for &loc in index.get(&key)? {
                let context = &contexts.entries[loc.ctx as usize];
                if !context.ctx.same(ctx) {
                    continue;
                }
                match read_frame(if loc.snap { snap } else { log }, loc) {
                    Ok(frame) => frames.push((loc, Arc::clone(context), frame)),
                    Err(_) => {
                        self.io_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            (*generation, frames)
        };
        for (loc, context, frame) in frames {
            let entry = frame_intact(&frame, loc, &context)
                .then(|| decode_entry(&frame[FRAME_HEADER_LEN..], loc.entry_off).ok())
                .flatten();
            let Some((representative, outcome)) = entry else {
                self.reject(key, loc, generation);
                continue;
            };
            let Some(map) = find_isomorphism(q, &representative) else { continue };
            let outcome = outcome.map(|chase| {
                Arc::new(StoredChase {
                    query: chase.query,
                    failed: chase.failed,
                    steps: chase.steps,
                    renaming: chase.renaming,
                    sigma_regularized: Arc::clone(&context.sigma),
                })
            });
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            return Some(DiskHit { representative, outcome, map });
        }
        None
    }

    /// Drops a frame that failed re-verification from the index, counting
    /// it as one corruption event — unless a compaction replaced the index
    /// since the frame was read (the compaction re-verified it) or another
    /// probe dropped it first.
    fn reject(&self, key: u64, loc: Loc, generation: u64) {
        let mut state = lock_recovering(&self.state);
        if state.generation != generation {
            return;
        }
        let Some(locs) = state.index.get_mut(&key) else { return };
        let before = locs.len();
        locs.retain(|l| (l.snap, l.off) != (loc.snap, loc.off));
        if locs.len() < before {
            self.discarded.fetch_add(1, Ordering::Relaxed);
        }
        if locs.is_empty() {
            state.index.remove(&key);
        }
    }

    /// Appends a record to the log (no-op when read-only or broken),
    /// snapshotting when the cadence is due. Write errors are terminal for
    /// the tier: the first failure marks it broken and is counted, so a
    /// full disk degrades the cache to memory-only instead of wedging it.
    pub(crate) fn append(&self, key: u64, record: &PersistRecord) {
        if self.read_only {
            return;
        }
        let mut state = lock_recovering(&self.state);
        if state.broken || state.log.is_none() {
            return;
        }
        let body = encode_record(record);
        // A body whose context fails to decode would end recovery's valid
        // prefix, and every later record with it: never write one.
        let Some(ctx) = state.contexts.find(&body).or_else(|| state.contexts.add(&body).ok())
        else {
            return;
        };
        let entry_off = state.contexts.entries[ctx].bytes.len() as u32;
        let frame = frame_record(&body);
        state.appends_seen += 1;
        if let Some(fault) = state.fault {
            if state.appends_seen == fault.at_append {
                let keep = fault.keep_bytes.min(frame.len());
                let off = state.log_len;
                if keep > 0 {
                    let log = state.log.as_mut().expect("checked above");
                    let _ = Self::write_at(log, off, &frame[..keep]);
                }
                state.broken = true;
                return;
            }
        }
        let off = state.log_len;
        let log = state.log.as_mut().expect("checked above");
        match Self::write_at(log, off, &frame) {
            Ok(()) => {
                state.index.entry(key).or_default().push(Loc {
                    snap: false,
                    off,
                    len: body.len() as u32,
                    ctx: ctx as u32,
                    entry_off,
                });
                state.log_len += frame.len() as u64;
                state.appends_since_snapshot += 1;
                self.appended.fetch_add(1, Ordering::Relaxed);
                if self.snapshot_every > 0 && state.appends_since_snapshot >= self.snapshot_every {
                    match self.compact(&mut state) {
                        Ok(()) => {
                            self.snapshots.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            self.io_errors.fetch_add(1, Ordering::Relaxed);
                            state.broken = true;
                        }
                    }
                }
            }
            Err(_) => {
                self.io_errors.fetch_add(1, Ordering::Relaxed);
                state.broken = true;
            }
        }
    }

    /// Compacts every indexed record into a fresh snapshot (written to a
    /// temp file, atomically renamed over the old one), then truncates the
    /// log to its header. A crash between rename and truncate leaves
    /// records duplicated across the two files — harmless: recovery
    /// indexes both copies and the confirm path dedups on first match.
    /// Frames are copied verbatim after the same length, checksum and
    /// context check a hit makes, so a frame altered since it was indexed
    /// is dropped (one `discarded` event), never re-checksummed into the
    /// snapshot.
    fn compact(&self, state: &mut TierState) -> io::Result<()> {
        let tmp_path = self.snapshot_path.with_extension("eqc.tmp");
        let mut entries: Vec<(u64, Loc)> = state
            .index
            .iter()
            .flat_map(|(key, locs)| locs.iter().map(move |loc| (*key, *loc)))
            .collect();
        // Deterministic snapshot bytes: order by key, then provenance.
        entries.sort_by_key(|(key, loc)| (*key, loc.snap, loc.off));
        // Buffered: one syscall per buffer, not per record, while the
        // tier's lock is held on the request path.
        let mut tmp = BufWriter::new(File::create(&tmp_path)?);
        tmp.write_all(&file_header(&SNAPSHOT_MAGIC))?;
        let mut new_index: HashMap<u64, Vec<Loc>> = HashMap::new();
        let mut off = FILE_HEADER_LEN as u64;
        for (key, loc) in entries {
            let frame = read_frame(if loc.snap { &mut state.snap } else { &mut state.log }, loc)?;
            if !frame_intact(&frame, loc, &state.contexts.entries[loc.ctx as usize]) {
                self.discarded.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            tmp.write_all(&frame)?;
            new_index.entry(key).or_default().push(Loc { snap: true, off, ..loc });
            off += frame.len() as u64;
        }
        let tmp = tmp.into_inner().map_err(|e| e.into_error())?;
        tmp.sync_all()?;
        drop(tmp);
        fs::rename(&tmp_path, &self.snapshot_path)?;
        state.snap = Some(File::open(&self.snapshot_path)?);
        state.index = new_index;
        state.generation += 1;
        let log = state.log.as_mut().expect("writable tier has a log");
        log.set_len(FILE_HEADER_LEN as u64)?;
        state.log_len = FILE_HEADER_LEN as u64;
        state.appends_since_snapshot = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqsql_chase::ChaseConfig;
    use eqsql_cq::parse_query;
    use eqsql_deps::parse_dependencies;
    use eqsql_relalg::Schema;

    fn sample_record(err: bool) -> PersistRecord {
        let sigma = Arc::new(parse_dependencies("p(X,Y) -> s(X,Z).").unwrap());
        let mut schema = Schema::all_bags(&[("p", 2), ("s", 2)]);
        schema.mark_set_valued(eqsql_cq::Predicate::new("s"));
        let ctx = ChaseContext::new(Semantics::Bag, &sigma, &schema, &ChaseConfig::default());
        let representative = parse_query("q(X) :- p(X,Y)").unwrap();
        let outcome = if err {
            Err(ChaseError::BudgetExhausted { steps: 17 })
        } else {
            Ok(PersistedChase {
                query: parse_query("q(X) :- p(X,Y), s(X,Z_1)").unwrap(),
                failed: false,
                steps: 1,
                renaming: Subst::from_pairs([(Var::new("Y"), Term::var("Y"))]),
            })
        };
        PersistRecord { ctx, sigma, representative, outcome }
    }

    #[test]
    fn round_trip_preserves_key_material_and_outcome() {
        for err in [false, true] {
            let record = sample_record(err);
            let body = encode_record(&record);
            let decoded = decode_record(&body).unwrap();
            assert!(decoded.ctx.same(&record.ctx));
            assert_eq!(decoded.ctx.fingerprint(), record.ctx.fingerprint());
            assert_eq!(decoded.representative, record.representative);
            // Recovery indexes the record under the key a live probe computes.
            let mut file = file_header(&LOG_MAGIC);
            file.extend_from_slice(&frame_record(&body));
            let scan = scan_file(&file, &LOG_MAGIC, false, &mut ContextTable::default());
            let live =
                cache_key(query_fingerprint(&record.representative), record.ctx.fingerprint());
            assert_eq!(scan.locs[0].0, live);
            match (&decoded.outcome, &record.outcome) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.query, b.query);
                    assert_eq!(a.failed, b.failed);
                    assert_eq!(a.steps, b.steps);
                    assert_eq!(a.renaming.sorted_pairs(), b.renaming.sorted_pairs());
                }
                (Err(a), Err(b)) => assert_eq!(a, b),
                _ => panic!("outcome shape changed in round trip"),
            }
            // Encoding is byte-deterministic.
            assert_eq!(body, encode_record(&decoded));
        }
    }

    /// The context's second body byte (right after the semantics tag) is
    /// reserved: a record holding anything but 0 there is invalid.
    #[test]
    fn nonzero_reserved_byte_is_refused() {
        let body = encode_record(&sample_record(false));
        assert_eq!(body[1], 0);
        assert!(decode_record(&body).is_ok());
        let mut flagged = body.clone();
        flagged[1] = 1;
        assert!(decode_record(&flagged).is_err());
    }

    #[test]
    fn every_constant_shape_round_trips() {
        let sigma = Arc::new(DependencySet::new());
        let schema = Schema::all_bags(&[("k", 4)]);
        let ctx = ChaseContext::new(Semantics::Set, &sigma, &schema, &ChaseConfig::default());
        let q = CqQuery::new(
            "q",
            vec![Term::var("X")],
            vec![Atom::new(
                "k",
                vec![
                    Term::var("X"),
                    Term::Const(Value::Int(-3)),
                    Term::Const(Value::Real(R64::new(2.5))),
                    Term::Const(Value::Labeled(u64::MAX)),
                ],
            )],
        );
        let record = PersistRecord {
            ctx,
            sigma,
            representative: q.clone(),
            outcome: Ok(PersistedChase {
                query: q,
                failed: true,
                steps: 0,
                renaming: Subst::new(),
            }),
        };
        let decoded = decode_record(&encode_record(&record)).unwrap();
        assert_eq!(decoded.representative, record.representative);
    }

    #[test]
    fn truncation_and_bitflips_never_decode_to_a_different_record() {
        let record = sample_record(false);
        let body = encode_record(&record);
        for cut in 0..body.len() {
            // A truncated body must fail, not mis-decode.
            assert!(decode_record(&body[..cut]).is_err(), "cut at {cut} decoded");
        }
        // Bit flips either fail to decode or decode to *some* record —
        // framing checksums catch them before decode in the real pipeline.
        for i in 0..body.len() {
            let mut flipped = body.clone();
            flipped[i] ^= 1;
            let _ = decode_record(&flipped);
        }
    }

    #[test]
    fn scan_stops_at_first_invalid_record() {
        let r = sample_record(false);
        let body = encode_record(&r);
        let mut bytes = file_header(&LOG_MAGIC);
        bytes.extend_from_slice(&frame_record(&body));
        bytes.extend_from_slice(&frame_record(&body));
        let full = scan_file(&bytes, &LOG_MAGIC, false, &mut ContextTable::default());
        assert_eq!((full.records, full.corrupt), (2, false));
        assert_eq!(full.valid_end, bytes.len() as u64);
        // Corrupt the second record's checksum: only the first survives.
        let second = FILE_HEADER_LEN + FRAME_HEADER_LEN + body.len();
        let mut corrupted = bytes.clone();
        corrupted[second + 5] ^= 0xFF;
        let scan = scan_file(&corrupted, &LOG_MAGIC, false, &mut ContextTable::default());
        assert_eq!((scan.records, scan.corrupt), (1, true));
        assert_eq!(scan.valid_end as usize, second);
        // Wrong magic: nothing admitted.
        let scan = scan_file(&bytes, &SNAPSHOT_MAGIC, true, &mut ContextTable::default());
        assert!(!scan.header_ok && scan.corrupt && scan.records == 0);
    }

    #[test]
    fn recovery_decodes_each_distinct_context_once() {
        let ok = encode_record(&sample_record(false));
        let err = encode_record(&sample_record(true));
        let mut other = sample_record(false);
        other.ctx = ChaseContext::new(
            Semantics::Set,
            &other.sigma,
            &Schema::all_bags(&[("p", 2), ("s", 2)]),
            &ChaseConfig::default(),
        );
        let other = encode_record(&other);
        let mut bytes = file_header(&LOG_MAGIC);
        for body in [&ok, &err, &other, &ok] {
            bytes.extend_from_slice(&frame_record(body));
        }
        let mut contexts = ContextTable::default();
        let scan = scan_file(&bytes, &LOG_MAGIC, false, &mut contexts);
        assert_eq!((scan.records, scan.corrupt), (4, false));
        // Records 1, 2 and 4 share a context; record 3 differs in semantics.
        assert_eq!(contexts.entries.len(), 2);
        let ids: Vec<u32> = scan.locs.iter().map(|(_, loc)| loc.ctx).collect();
        assert_eq!(ids, [0, 0, 1, 0]);
        for (_, loc) in &scan.locs {
            let context = &contexts.entries[loc.ctx as usize];
            assert_eq!(loc.entry_off as usize, context.bytes.len());
            let body = &bytes[loc.off as usize + FRAME_HEADER_LEN..][..loc.len as usize];
            let frame = &bytes[loc.off as usize..][..FRAME_HEADER_LEN + loc.len as usize];
            assert!(frame_intact(frame, *loc, context));
            let decoded = decode_record(body).unwrap();
            assert!(decoded.ctx.same(&context.ctx));
            assert_eq!(decode_entry(body, loc.entry_off).unwrap().0, decoded.representative);
        }
        // A later scan over the same table decodes no context at all.
        let again = scan_file(&bytes, &LOG_MAGIC, false, &mut contexts);
        assert_eq!((again.records, contexts.entries.len()), (4, 2));
    }

    #[test]
    fn altered_frames_fail_the_intact_check() {
        let body = encode_record(&sample_record(false));
        let mut contexts = ContextTable::default();
        let ctx = contexts.add(&body).unwrap();
        let context = &contexts.entries[ctx];
        let loc = Loc {
            snap: false,
            off: 0,
            len: body.len() as u32,
            ctx: ctx as u32,
            entry_off: context.bytes.len() as u32,
        };
        let frame = frame_record(&body);
        assert_eq!(context.body_checksum(&body), checksum(&body));
        assert!(frame_intact(&frame, loc, context));
        for i in 0..frame.len() {
            let mut altered = frame.clone();
            altered[i] ^= 0x10;
            assert!(!frame_intact(&altered, loc, context), "flip at {i} passed");
        }
        // A re-checksummed body whose context changed still fails.
        let mut forged = body.clone();
        forged[0] = sem_tag(Semantics::Set);
        assert!(!frame_intact(&frame_record(&forged), loc, context));
    }

    #[test]
    fn reject_drops_a_location_once_and_only_within_its_generation() {
        let tier = PersistTier::empty(true, 0, PathBuf::new());
        let loc = Loc { snap: false, off: 12, len: 1, ctx: 0, entry_off: 0 };
        let other = Loc { off: 40, ..loc };
        lock_recovering(&tier.state).index.insert(7, vec![loc, other]);
        // A compaction since the frame was read: its offset may name
        // another frame now, so nothing is dropped or counted.
        lock_recovering(&tier.state).generation = 1;
        tier.reject(7, loc, 0);
        assert_eq!((lock_recovering(&tier.state).index[&7].len(), tier.stats().discarded), (2, 0));
        // Two probes rejecting the same frame count it once.
        tier.reject(7, loc, 1);
        tier.reject(7, loc, 1);
        assert_eq!((lock_recovering(&tier.state).index[&7].len(), tier.stats().discarded), (1, 1));
        tier.reject(7, other, 1);
        assert!(!lock_recovering(&tier.state).index.contains_key(&7));
        assert_eq!(tier.stats().discarded, 2);
    }

    #[test]
    fn transient_errors_are_rejected_by_the_wire_gate() {
        assert!(ChaseError::Cancelled { steps: 1 }.wire().is_none());
        assert!(ChaseError::DeadlineExceeded { steps: 1 }.wire().is_none());
        assert_eq!(ChaseError::from_wire(1, 9), Some(ChaseError::BudgetExhausted { steps: 9 }));
        assert_eq!(ChaseError::from_wire(7, 9), None);
    }
}
