//! The newline-delimited request format driven by `eqsql-serve`.
//!
//! A request file describes one batch over a shared Σ: file-level schema
//! flags and default budgets, then one line per decision — the full verb
//! family of [`crate::Request`]. Line-oriented, `#` comments:
//!
//! ```text
//! # Σ, one or more dependencies per line (datalog-ish syntax, '.'-terminated)
//! sigma: p(X,Y) -> s(X,Z) & t(X,V,W).
//! sigma: s(X,Y) & s(X,Z) -> Y = Z.
//! # relations that are set-valued on every instance (Appendix C flags)
//! set_valued: s t
//! # file-level default chase budgets (optional)
//! max_steps: 5000
//! max_atoms: 5000
//! # Σ-equivalence: <options> | <query 1> | <query 2>
//! pair: set | q1(X) :- p(X,Y), s(X,Z) | q2(X) :- p(X,Y)
//! equivalent: bag max_steps=200 | q1(X) :- p(X,Y) | q2(X) :- p(X,Y)
//! # set containment: q1 ⊑_{Σ,S} q2 (options before the first '|')
//! contains: | q1(X) :- p(X,Y), s(X,Z) | q2(X) :- p(X,Y)
//! # Σ-minimality and C&B reformulation of one query
//! minimal: set | q(X) :- p(X,Y), s(X,Z)
//! cnb: bagset | q(X) :- p(X,Y)
//! # dependency implication: Σ ⊨ σ?
//! implies: p(X,Y) -> s(X,W).
//! ```
//!
//! The *options* field (everything before the first `|`; may be empty)
//! holds whitespace-separated tokens: a semantics (`set|bag|bagset`),
//! per-request budget overrides (`max_steps=N`, `max_atoms=N`), and/or a
//! per-request wall-clock deadline (`deadline_ms=N`; `0` means already
//! expired) — they populate [`crate::RequestOpts`]. Without a semantics a
//! request is decided under set semantics; without budget overrides it
//! runs under the file's budgets. `pair:` is an alias of `equivalent:`.
//!
//! The schema is inferred: every predicate/arity mentioned in Σ, in a
//! query, or in an `implies:` dependency becomes a (bag-valued) relation,
//! then `set_valued` lines flip flags. An arity conflict is a parse error.

use crate::solver::{Request, RequestOpts};
use eqsql_chase::ChaseConfig;
use eqsql_cq::{parse_query, Atom, Predicate};
use eqsql_deps::{parse_dependencies, Dependency, DependencySet};
use eqsql_relalg::{Schema, Semantics};
use std::collections::BTreeMap;
use std::fmt;

/// A parsed request file: everything a [`crate::Solver`] needs.
#[derive(Clone, Debug)]
pub struct RequestFile {
    /// The shared dependency set.
    pub sigma: DependencySet,
    /// The inferred schema, with `set_valued` flags applied.
    pub schema: Schema,
    /// File-level chase budgets (defaults unless overridden per request).
    pub config: ChaseConfig,
    /// The batch, in file order.
    pub requests: Vec<Request>,
}

/// A request-file syntax or consistency error, with its 1-based line.
#[derive(Clone, Debug)]
pub struct RequestParseError {
    /// 1-based line number (0 for whole-file errors).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for RequestParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for RequestParseError {}

fn err(line: usize, message: impl Into<String>) -> RequestParseError {
    RequestParseError { line, message: message.into() }
}

/// The keywords of a request file's header lines: they configure a
/// server at startup, and are no wire verbs.
const HEADERS: [&str; 4] = ["sigma", "set_valued", "max_steps", "max_atoms"];

/// The largest request line either parser entry point will look at, in
/// bytes. [`parse_request_line_bytes`] rejects longer lines up front with
/// a parse error (never by killing the connection), so a hostile client
/// cannot make the server buffer or echo unbounded garbage.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// A short quoted excerpt of untrusted input for error messages: long or
/// binary junk is truncated rather than echoed in full.
fn snippet(s: &str) -> String {
    const MAX: usize = 60;
    if s.len() <= MAX {
        return format!("{s:?}");
    }
    let mut end = MAX;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    format!("{:?}…", &s[..end])
}

fn parse_semantics(s: &str, line: usize) -> Result<Semantics, RequestParseError> {
    match s.trim().to_ascii_lowercase().as_str() {
        "set" | "s" => Ok(Semantics::Set),
        "bag" | "b" => Ok(Semantics::Bag),
        "bagset" | "bag-set" | "bag_set" | "bs" => Ok(Semantics::BagSet),
        other => Err(err(line, format!("unknown semantics {other:?} (want set|bag|bagset)"))),
    }
}

/// Parses an options field: optional semantics token plus
/// `max_steps=N`/`max_atoms=N`/`deadline_ms=N` overrides,
/// whitespace-separated.
fn parse_opts(s: &str, line: usize) -> Result<RequestOpts, RequestParseError> {
    let mut opts = RequestOpts::default();
    for tok in s.split_whitespace() {
        if let Some((key, value)) = tok.split_once('=') {
            let n: usize =
                value.parse().map_err(|_| err(line, format!("bad numeric override {tok:?}")))?;
            match key {
                "max_steps" => opts.max_steps = Some(n),
                "max_atoms" => opts.max_atoms = Some(n),
                "deadline_ms" => opts.deadline_ms = Some(n as u64),
                other => return Err(err(line, format!("unknown override {other:?}"))),
            }
        } else {
            if opts.sem.is_some() {
                return Err(err(line, format!("two semantics tokens (second: {tok:?})")));
            }
            opts.sem = Some(parse_semantics(tok, line)?);
        }
    }
    Ok(opts)
}

fn note_arity(
    pred: Predicate,
    arity: usize,
    arities: &mut BTreeMap<Predicate, usize>,
    line: usize,
) -> Result<(), RequestParseError> {
    match arities.insert(pred, arity) {
        Some(prev) if prev != arity => {
            Err(err(line, format!("relation {pred} used with arities {prev} and {arity}")))
        }
        _ => Ok(()),
    }
}

fn note_atoms<'a>(
    atoms: impl IntoIterator<Item = &'a Atom>,
    arities: &mut BTreeMap<Predicate, usize>,
    line: usize,
) -> Result<(), RequestParseError> {
    atoms.into_iter().try_for_each(|a| note_arity(a.pred, a.arity(), arities, line))
}

fn note_dep(
    dep: &Dependency,
    arities: &mut BTreeMap<Predicate, usize>,
    line: usize,
) -> Result<(), RequestParseError> {
    note_atoms(dep.lhs(), arities, line)?;
    if let Dependency::Tgd(t) = dep {
        note_atoms(&t.rhs, arities, line)?;
    }
    Ok(())
}

/// A raw request line, before query parsing.
enum RawRequest {
    TwoQueries { verb: Verb2, opts: RequestOpts, q1: String, q2: String },
    OneQuery { verb: Verb1, opts: RequestOpts, q: String },
    Implies { opts: RequestOpts, dep: String },
}

#[derive(Clone, Copy)]
enum Verb2 {
    Equivalent,
    Contains,
}

#[derive(Clone, Copy)]
enum Verb1 {
    Minimal,
    Cnb,
}

fn parse_two(verb: Verb2, rest: &str, line_no: usize) -> Result<RawRequest, RequestParseError> {
    let mut parts = rest.splitn(3, '|');
    let (Some(o), Some(q1), Some(q2)) = (parts.next(), parts.next(), parts.next()) else {
        return Err(err(line_no, "wants `<options> | <query> | <query>`"));
    };
    Ok(RawRequest::TwoQueries {
        verb,
        opts: parse_opts(o, line_no)?,
        q1: q1.trim().to_string(),
        q2: q2.trim().to_string(),
    })
}

fn parse_one(verb: Verb1, rest: &str, line_no: usize) -> Result<RawRequest, RequestParseError> {
    match rest.split_once('|') {
        Some((o, q)) => Ok(RawRequest::OneQuery {
            verb,
            opts: parse_opts(o, line_no)?,
            q: q.trim().to_string(),
        }),
        None => {
            Ok(RawRequest::OneQuery { verb, opts: RequestOpts::default(), q: rest.to_string() })
        }
    }
}

/// Parses one *verb* line into a [`RawRequest`]; `Ok(None)` means the
/// keyword is not a verb (a file-header keyword or junk — the caller
/// decides which of those it accepts).
fn raw_request(
    keyword: &str,
    rest: &str,
    line_no: usize,
) -> Result<Option<RawRequest>, RequestParseError> {
    Ok(Some(match keyword {
        "pair" | "equivalent" => parse_two(Verb2::Equivalent, rest, line_no)?,
        "contains" => parse_two(Verb2::Contains, rest, line_no)?,
        "minimal" => parse_one(Verb1::Minimal, rest, line_no)?,
        "cnb" => parse_one(Verb1::Cnb, rest, line_no)?,
        "implies" => {
            let (opts, dep) = match rest.split_once('|') {
                Some((o, d)) => (parse_opts(o, line_no)?, d.trim().to_string()),
                None => (RequestOpts::default(), rest.to_string()),
            };
            RawRequest::Implies { opts, dep }
        }
        _ => return Ok(None),
    }))
}

/// Materializes one raw request: parses its queries/dependencies, records
/// every mentioned predicate's arity (erroring on conflicts), and appends
/// the resulting [`Request`]s to `out` (an `implies:` line may carry
/// several dependencies, hence several requests).
fn build_requests(
    r: RawRequest,
    line_no: usize,
    arities: &mut BTreeMap<Predicate, usize>,
    out: &mut Vec<Request>,
) -> Result<(), RequestParseError> {
    let parse_q = |s: &str| -> Result<eqsql_cq::CqQuery, RequestParseError> {
        parse_query(s).map_err(|e| err(line_no, format!("bad query: {e}")))
    };
    match r {
        RawRequest::TwoQueries { verb, opts, q1, q2 } => {
            let q1 = parse_q(&q1)?;
            let q2 = parse_q(&q2)?;
            note_atoms(&q1.body, arities, line_no)?;
            note_atoms(&q2.body, arities, line_no)?;
            out.push(match verb {
                Verb2::Equivalent => Request::Equivalent { q1, q2, opts },
                Verb2::Contains => Request::Contained { q1, q2, opts },
            });
        }
        RawRequest::OneQuery { verb, opts, q } => {
            let q = parse_q(&q)?;
            note_atoms(&q.body, arities, line_no)?;
            out.push(match verb {
                Verb1::Minimal => Request::Minimal { q, opts },
                Verb1::Cnb => Request::Reformulate { q, opts },
            });
        }
        RawRequest::Implies { opts, dep } => {
            let deps = parse_dependencies(&dep)
                .map_err(|e| err(line_no, format!("bad dependency: {e}")))?;
            for d in deps.iter() {
                note_dep(d, arities, line_no)?;
                out.push(Request::Implies { dep: d.clone(), opts });
            }
        }
    }
    Ok(())
}

/// Parses one wire request line against a server's fixed schema: a verb
/// line exactly as in a request file (`pair:`/`equivalent:`, `contains:`,
/// `minimal:`, `cnb:`, `implies:` — see the module docs for the grammar),
/// except that the schema is *given*, not inferred. Every relation the
/// line mentions must already exist in `schema` with a matching arity
/// (the server's Σ and set-valued flags were fixed at startup; a request
/// cannot grow them), and an `implies:` line must carry exactly one
/// dependency so one line maps to one response. File-header keywords
/// (`sigma:`, `set_valued:`, `max_steps:`, `max_atoms:`) are rejected
/// with a parse error. Any malformed input — junk bytes, unknown verbs,
/// bad queries — is a per-line [`RequestParseError`] (mapped to
/// [`crate::Error::Parse`]), never a reason to drop a connection.
pub fn parse_request_line(line: &str, schema: &Schema) -> Result<Request, RequestParseError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Err(err(0, "empty request line"));
    }
    let Some((keyword, rest)) = line.split_once(':') else {
        return Err(err(0, format!("expected `verb: ...`, got {}", snippet(line))));
    };
    let keyword = keyword.trim();
    let rest = rest.trim();
    let raw = match raw_request(keyword, rest, 0)? {
        Some(raw) => raw,
        None if HEADERS.contains(&keyword) => {
            return Err(err(0, format!("{keyword:?} is a request-file header, not a wire verb")));
        }
        None => return Err(err(0, format!("unknown verb {}", snippet(keyword)))),
    };
    // Seed with the server schema so conflicting uses error in
    // `note_atoms`; afterwards, anything not seeded is a new relation.
    let mut arities: BTreeMap<Predicate, usize> =
        schema.iter().map(|r| (r.name, r.arity)).collect();
    let known = arities.len();
    let mut out = Vec::with_capacity(1);
    build_requests(raw, 0, &mut arities, &mut out)?;
    if arities.len() > known {
        let new: Vec<String> =
            arities.keys().filter(|p| schema.arity(**p).is_none()).map(|p| p.to_string()).collect();
        return Err(err(0, format!("relations not in the server schema: {}", new.join(", "))));
    }
    match out.len() {
        1 => Ok(out.pop().expect("length checked")),
        n => Err(err(0, format!("implies line carries {n} dependencies; send one per line"))),
    }
}

/// Checks a programmatically built request against `schema`, as
/// [`parse_request_line`] checks a wire line: a relation the schema
/// declares must appear at its declared arity, and no relation may appear
/// at two arities (a [`Request::ChaseInstance`] database's relations
/// count as uses). Unlike a wire line, a request may use relations the
/// schema does not declare.
pub(crate) fn check_arities(request: &Request, schema: &Schema) -> Result<(), RequestParseError> {
    let mut arities: BTreeMap<Predicate, usize> =
        schema.iter().map(|r| (r.name, r.arity)).collect();
    match request {
        Request::Equivalent { q1, q2, .. }
        | Request::Contained { q1, q2, .. }
        | Request::BagContained { q1, q2, .. } => {
            note_atoms(q1.body.iter().chain(&q2.body), &mut arities, 0)
        }
        Request::Minimal { q, .. } | Request::Reformulate { q, .. } => {
            note_atoms(&q.body, &mut arities, 0)
        }
        Request::Implies { dep, .. } => note_dep(dep, &mut arities, 0),
        Request::ChaseInstance { db, .. } => {
            db.iter().try_for_each(|(p, r)| note_arity(p, r.arity(), &mut arities, 0))
        }
    }
}

/// [`parse_request_line`] over raw socket bytes: enforces the
/// [`MAX_LINE_BYTES`] bound and UTF-8 validity *before* looking at the
/// content, so oversized or binary garbage degrades to an ordinary parse
/// error for that line alone.
pub fn parse_request_line_bytes(
    bytes: &[u8],
    schema: &Schema,
) -> Result<Request, RequestParseError> {
    if bytes.len() > MAX_LINE_BYTES {
        return Err(err(
            0,
            format!(
                "request line of {} bytes exceeds the {MAX_LINE_BYTES}-byte limit",
                bytes.len()
            ),
        ));
    }
    let line = std::str::from_utf8(bytes)
        .map_err(|e| err(0, format!("request line is not valid UTF-8: {e}")))?;
    parse_request_line(line, schema)
}

/// The wire-sendable lines of a request-file text: its verb lines, in
/// file order. Headers configure a server at startup; comments and blanks
/// carry nothing.
pub fn request_lines(text: &str) -> Vec<String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter(|l| !HEADERS.contains(&l.split(':').next().unwrap_or_default().trim()))
        .map(str::to_string)
        .collect()
}

/// Parses the request format described in the module docs.
pub fn parse_request_file(text: &str) -> Result<RequestFile, RequestParseError> {
    let mut sigma = DependencySet::new();
    let mut set_valued: Vec<(String, usize)> = Vec::new();
    let mut config = ChaseConfig::default();
    let mut raw: Vec<(RawRequest, usize)> = Vec::new();
    for (i, raw_line) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((keyword, rest)) = line.split_once(':') else {
            return Err(err(line_no, format!("expected `keyword: ...`, got {}", snippet(line))));
        };
        let keyword = keyword.trim();
        let rest = rest.trim();
        if let Some(r) = raw_request(keyword, rest, line_no)? {
            raw.push((r, line_no));
            continue;
        }
        match keyword {
            "sigma" => {
                let deps = parse_dependencies(rest)
                    .map_err(|e| err(line_no, format!("bad dependency: {e}")))?;
                for d in deps.iter() {
                    sigma.push(d.clone());
                }
            }
            "set_valued" => {
                for name in rest.split_whitespace() {
                    set_valued.push((name.to_string(), line_no));
                }
            }
            "max_steps" => {
                config.max_steps =
                    rest.parse().map_err(|_| err(line_no, format!("bad max_steps {rest:?}")))?;
            }
            "max_atoms" => {
                config.max_atoms =
                    rest.parse().map_err(|_| err(line_no, format!("bad max_atoms {rest:?}")))?;
            }
            other => return Err(err(line_no, format!("unknown keyword {}", snippet(other)))),
        }
    }
    if raw.is_empty() {
        return Err(err(0, "request file has no request lines"));
    }

    // Infer the schema from every atom in sight.
    let mut arities: BTreeMap<Predicate, usize> = BTreeMap::new();
    for d in sigma.iter() {
        note_dep(d, &mut arities, 0)?;
    }
    let mut requests = Vec::with_capacity(raw.len());
    for (r, line_no) in raw {
        build_requests(r, line_no, &mut arities, &mut requests)?;
    }
    let rels: Vec<(&str, usize)> = arities.iter().map(|(p, &a)| (p.name(), a)).collect();
    let mut schema = Schema::all_bags(&rels);
    for (name, line_no) in set_valued {
        let pred = Predicate::new(&name);
        if !arities.contains_key(&pred) {
            return Err(err(line_no, format!("set_valued relation {name:?} never mentioned")));
        }
        schema.mark_set_valued(pred);
    }
    Ok(RequestFile { sigma, schema, config, requests })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# a comment
sigma: p(X,Y) -> s(X,Z).
sigma: s(X,Y) & s(X,Z) -> Y = Z.
set_valued: s
max_steps: 1234

pair: set | q(X) :- p(X,Y) | q(X) :- p(X,Y), s(X,Z)
equivalent: bagset max_steps=99 | q(X) :- p(X,Y) | q(X) :- p(X,Y), s(X,Z)
contains: | q(X) :- p(X,Y), s(X,Z) | q(X) :- p(X,Y)
minimal: set | q(X) :- p(X,Y), s(X,Z)
cnb: bag max_atoms=77 | q(X) :- p(X,Y)
implies: p(X,Y) -> s(X,W).
";

    #[test]
    fn parses_the_documented_format() {
        let r = parse_request_file(SAMPLE).unwrap();
        assert_eq!(r.sigma.len(), 2);
        assert_eq!(r.requests.len(), 6);
        assert_eq!(r.config.max_steps, 1234);
        assert!(r.schema.is_set_valued(Predicate::new("s")));
        assert!(!r.schema.is_set_valued(Predicate::new("p")));
        assert_eq!(r.schema.arity(Predicate::new("s")), Some(2));
        match &r.requests[0] {
            Request::Equivalent { opts, .. } => {
                assert_eq!(opts.sem, Some(Semantics::Set));
                assert_eq!(opts.max_steps, None);
            }
            other => panic!("expected Equivalent, got {other:?}"),
        }
        match &r.requests[1] {
            Request::Equivalent { opts, .. } => {
                assert_eq!(opts.sem, Some(Semantics::BagSet));
                assert_eq!(opts.max_steps, Some(99));
            }
            other => panic!("expected Equivalent, got {other:?}"),
        }
        assert!(matches!(
            &r.requests[2],
            Request::Contained { opts: RequestOpts { sem: None, .. }, .. }
        ));
        assert!(matches!(&r.requests[3], Request::Minimal { .. }));
        match &r.requests[4] {
            Request::Reformulate { opts, .. } => {
                assert_eq!(opts.sem, Some(Semantics::Bag));
                assert_eq!(opts.max_atoms, Some(77));
            }
            other => panic!("expected Reformulate, got {other:?}"),
        }
        assert!(matches!(&r.requests[5], Request::Implies { .. }));
    }

    #[test]
    fn rejects_arity_conflicts_and_junk() {
        assert!(parse_request_file(
            "sigma: p(X) -> s(X).\npair: set | q(X) :- p(X,Y) | q(X) :- p(X)"
        )
        .unwrap_err()
        .message
        .contains("arities"));
        assert!(parse_request_file("nonsense\n").is_err());
        assert!(parse_request_file("pair: magic | q(X) :- p(X) | q(X) :- p(X)").is_err());
        assert!(parse_request_file("pair: set set | q(X) :- p(X) | q(X) :- p(X)").is_err());
        assert!(parse_request_file("pair: set max_steps=x | q(X) :- p(X) | q(X) :- p(X)").is_err());
        assert!(parse_request_file("sigma: p(X) -> s(X).")
            .unwrap_err()
            .message
            .contains("no request"));
    }

    #[test]
    fn implies_infers_schema_from_the_dependency() {
        let r = parse_request_file("sigma: a(X) -> b(X).\nimplies: a(X) -> c(X,Y).").unwrap();
        assert_eq!(r.schema.arity(Predicate::new("c")), Some(2));
        assert_eq!(r.requests.len(), 1);
    }

    fn wire_schema() -> Schema {
        let mut s = Schema::all_bags(&[("p", 2), ("s", 2)]);
        s.mark_set_valued(Predicate::new("s"));
        s
    }

    #[test]
    fn single_line_accepts_every_verb() {
        let schema = wire_schema();
        let lines = [
            "pair: set | q(X) :- p(X,Y) | q(X) :- p(X,Y), s(X,Z)",
            "equivalent: bag max_steps=9 | q(X) :- p(X,Y) | q(X) :- p(X,Y)",
            "contains: | q(X) :- p(X,Y), s(X,Z) | q(X) :- p(X,Y)",
            "minimal: set | q(X) :- p(X,Y), s(X,Z)",
            "cnb: q(X) :- p(X,Y)",
            "implies: p(X,Y) -> s(X,W).",
        ];
        for line in lines {
            parse_request_line(line, &schema).unwrap_or_else(|e| panic!("{line:?}: {e}"));
        }
    }

    #[test]
    fn single_line_pins_the_server_schema() {
        let schema = wire_schema();
        // A relation the server never heard of.
        let e = parse_request_line("minimal: q(X) :- zebra(X)", &schema).unwrap_err();
        assert!(e.message.contains("not in the server schema"), "{e}");
        // A known relation at the wrong arity.
        let e = parse_request_line("minimal: q(X) :- p(X)", &schema).unwrap_err();
        assert!(e.message.contains("arities"), "{e}");
        // Headers configure files, not live servers.
        for line in ["sigma: p(X,Y) -> s(X,X).", "set_valued: p", "max_steps: 9", "max_atoms: 9"] {
            let e = parse_request_line(line, &schema).unwrap_err();
            assert!(e.message.contains("request-file header"), "{line:?}: {e}");
        }
        // One implies line, one dependency, one response.
        let e = parse_request_line("implies: p(X,Y) -> s(X,X). s(X,Y) -> p(X,X).", &schema)
            .unwrap_err();
        assert!(e.message.contains("one per line"), "{e}");
    }

    /// Fuzz-style corpus: every line here must come back as a parse
    /// error — never a panic, and (at the byte entry point) never a
    /// reason to treat the input as anything but one bad line.
    #[test]
    fn malformed_corpus_degrades_to_parse_errors() {
        let schema = wire_schema();
        let corpus: &[&[u8]] = &[
            b"",
            b"   ",
            b"# just a comment",
            b"no colon at all",
            b":",
            b": | a | b",
            b"pair",
            b"pair:",
            b"pair: set | q(X) :- p(X,Y)",
            b"pair: set | | ",
            b"pair: magic | q(X) :- p(X,Y) | q(X) :- p(X,Y)",
            b"pair: set set | q(X) :- p(X,Y) | q(X) :- p(X,Y)",
            b"pair: max_steps=x | q(X) :- p(X,Y) | q(X) :- p(X,Y)",
            b"pair: max_steps=-1 | q(X) :- p(X,Y) | q(X) :- p(X,Y)",
            b"equivalent: set | q(X) :- | q(X) :- p(X,Y)",
            b"contains: | q( | q(X) :- p(X,Y)",
            b"minimal: ",
            b"minimal: q(X) :- p(X,Y) extra junk",
            b"cnb: \xc3\x28",    // invalid UTF-8 continuation
            b"\xff\xfe\x00\x01", // binary garbage
            b"implies: ",
            b"implies: p(X,Y) -> ",
            b"implies: p(X,Y) > s(X,X).",
            b"unknown_verb: whatever",
            b"PAIR: set | q(X) :- p(X,Y) | q(X) :- p(X,Y)", // verbs are case-sensitive
            b"pair : set\x00 | q(X) :- p(X,Y) | q(X) :- p(X,Y)",
        ];
        for bytes in corpus {
            let got = parse_request_line_bytes(bytes, &schema);
            assert!(got.is_err(), "expected a parse error for {bytes:?}");
        }
        // An oversized line is rejected by length before content, and the
        // error message does not echo the payload back.
        let huge = vec![b'x'; MAX_LINE_BYTES + 1];
        let e = parse_request_line_bytes(&huge, &schema).unwrap_err();
        assert!(e.message.contains("exceeds"), "{e}");
        assert!(e.message.len() < 200, "oversized input echoed into the error");
        // Junk in ordinary errors is truncated, not echoed in full.
        let junk = format!("pair: set | q(X) :- p(X,Y) | {}", "z".repeat(10_000));
        let _ = parse_request_line(&junk, &schema);
        let no_colon = "y".repeat(10_000);
        let e = parse_request_line(&no_colon, &schema).unwrap_err();
        assert!(e.message.len() < 200, "junk echoed into the error: {} bytes", e.message.len());
    }
}
