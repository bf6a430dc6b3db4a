//! # eqsql-net — a TCP front end for the [`eqsql_service::Solver`]
//!
//! The serving layer (`eqsql_service`) decides batches; this crate puts a
//! socket in front of it. Std-only by design — `std::net` blocking I/O
//! plus the workspace's usual scoped-thread idioms, no async runtime —
//! following the thin-bin/fat-library split: [`Server`] and [`Client`]
//! live here as library types, and the `eqsql-serve` / `netdrive`
//! binaries are argument parsing around them.
//!
//! * [`server`] — [`Server::start`] binds a listener and runs a bounded
//!   accept loop (connection limit, per-connection write timeout). The
//!   accept thread blocks in `accept` and each connection's reader thread
//!   blocks in `read`: readers parse request lines, answer control verbs,
//!   and feed decoded requests into one decision pool for the whole
//!   server — [`eqsql_service::Solver::threads`] deciders, each running
//!   [`eqsql_service::Solver::decide_request`] and writing one response
//!   line per verdict to the sending connection *as it completes*. The
//!   deadlines, cancellation and retry of
//!   [`eqsql_service::BatchOptions`] apply per request over the network,
//!   and its admission capacity bounds the requests queued or deciding
//!   across all connections. [`Server::drain`] (or the wire verb `drain`)
//!   is the SIGTERM-equivalent: stop accepting, wake every blocked
//!   thread, cancel in-flight work through the shared
//!   [`eqsql_service::Cancel`] token, flush responses, log a final stats
//!   line.
//! * [`client`] — [`Client`], a small blocking client (connect, send,
//!   iterate responses) used by the tests, by `netdrive`, and by
//!   `loadgen --connect` for open-loop latency measurement over a real
//!   socket.
//! * [`proto`] — the line grammar itself: request-id tagging, control
//!   verbs and the parsing of response lines (a verdict line is rendered
//!   by [`eqsql_service::RequestRecord::render`]).
//! * [`json`] — the hand-rolled (dependency-free) JSON encoding of
//!   [`eqsql_service::SolverStats`] and the [`ServerReport`] behind the
//!   `stats` verb, plus a strict validator the tests check it with.
//!
//! ## Wire protocol
//!
//! Everything is newline-delimited UTF-8 text; one line, one message, in
//! both directions. No length prefixes, no binary framing. A line is at
//! most [`eqsql_service::MAX_LINE_BYTES`] bytes; longer lines are
//! answered with a parse-error response and discarded without killing
//! the connection.
//!
//! ### Requests (client → server)
//!
//! A request line is the `eqsql_service::request` verb grammar verbatim
//! — exactly what a request-file line looks like — optionally preceded
//! by an `id=N` tag:
//!
//! ```text
//! id=7 pair: set | q(X) :- p(X,Y) | q(X) :- p(X,Y), s(X,Z)
//! contains: | q(X) :- p(X,Y), s(X,Z) | q(X) :- p(X,Y)
//! minimal: set | q(X) :- p(X,Y), s(X,Z)
//! cnb: bag | q(X) :- p(X,Y)
//! implies: p(X,Y) -> s(X,W).
//! ```
//!
//! The verb family, options field (semantics, `max_steps=`/`max_atoms=`/
//! `deadline_ms=` overrides) and query/dependency syntax are those of
//! [`eqsql_service::parse_request_line`]; the differences from a request
//! file are the ones that rustdoc spells out — the schema and Σ are
//! fixed at server startup (file-header keywords like `sigma:` are
//! rejected; unknown relations are rejected), and an `implies:` line
//! carries exactly one dependency. The `id` tags responses for
//! out-of-order completion: requests on one connection pipeline freely
//! and verdicts stream back in *completion* order, not submission order.
//! Lines without a tag get a server-assigned per-connection sequence
//! number. Empty lines and `#` comments are ignored.
//!
//! Three **control verbs** (also `id`-taggable, no colon) are handled by
//! the reader thread immediately, jumping any queued decisions:
//!
//! ```text
//! ping            → pong id=N
//! stats           → stats id=N {"requests":…,"cache":{…},…,"server":{…}}
//! drain           → draining id=N       (then the whole server drains)
//! ```
//!
//! The `stats` document's `server` object carries the connection counts,
//! verdict lines served, and the decision pool's peaks:
//! `peak_in_flight` (requests queued or deciding at once) and
//! `peak_deciders` (requests deciding at once).
//!
//! ### Responses (server → client)
//!
//! Every decided request produces exactly one `verdict` line: its
//! [`eqsql_service::RequestRecord`], rendered by
//! [`eqsql_service::RequestRecord::render`]. The fields are stable
//! `key=value` pairs (space-separated; order fixed; new keys append
//! before `msg`, which is always last and runs to end of line, with any
//! CR or LF of the message rendered as a space):
//!
//! ```text
//! verdict id=7 verb=equivalent outcome=equivalent terminal=ok positive=true
//!         evidence=containment-homs steps=12 hits=0 misses=2 wall_us=873
//! verdict id=8 verb=implies outcome=not-implied terminal=ok positive=false
//!         evidence=witness-db steps=4 hits=1 misses=0 wall_us=97
//! verdict id=9 verb=equivalent outcome=cancelled terminal=cancelled
//!         positive=false evidence=none steps=310 hits=0 misses=1
//!         wall_us=5120 msg=cancelled after 310 chase steps
//! ```
//!
//! (Shown wrapped; on the wire each is one line.) `verb` is the request
//! label, `outcome` the answer/error label, and `terminal` one of `ok`,
//! `error`, `deadline`, `cancelled`, `shed`, `panic`
//! ([`eqsql_service::Error::labels`]). `evidence` is a one-token summary
//! of the certificate the verdict carries (`containment-homs`,
//! `isomorphism`, `witness-db`, `reformulations=N`, `vacuous`, `none`,
//! …). `steps`/`hits`/`misses` are the decision's chase-step and cache
//! accounting, summed over its attempts (a budget-exhausted request may
//! be retried at an escalated budget); `wall_us` is measured from the
//! socket read.
//!
//! When the solver observes the request (`eqsql-serve --metrics` or
//! `--trace`, i.e. a trace sink is installed), ten
//! fields follow `wall_us`: the five phases `queue_us=` `regularize_us=`
//! `chase_us=` `cache_us=` `evidence_us=` (the queue phase starts at the
//! socket read), then `attempts=` (decision attempts, `0` for a shed
//! request), `engine_steps=` and `scans=` (fresh engine work), and
//! `mem_hits=` `disk_hits=` (the hits by cache tier). A trace sink
//! receives the same line the client reads.
//!
//! Malformed request lines get the same shape — `verb=unparsed
//! outcome=parse-error terminal=error` with the parser's message in
//! `msg=` — and the connection stays up; a request shed at admission gets
//! `outcome=shed terminal=shed` at once; over-limit connections get one
//! `busy max=N` line and are closed.
//!
//! ### Lifecycle
//!
//! A client may close its write half (or the whole socket) whenever it
//! has sent everything; the server finishes deciding what was queued on
//! that connection, streams the verdicts, and closes. On `drain` the
//! server stops accepting, cancels in-flight decisions (they complete
//! with `terminal=cancelled` verdict lines — still one response per
//! request), closes idle connections, flushes every connection, and
//! exits its accept loop with a final `stats:`-prefixed log line on
//! stderr.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod json;
pub mod proto;
pub mod server;

pub use client::Client;
pub use json::{stats_json, validate_json};
pub use proto::{Response, WireVerdict};
pub use server::{Server, ServerConfig, ServerReport};
