//! The wire grammar: request-id tagging, control verbs, and response-line
//! parsing. See the crate docs for the protocol itself. A verdict line is
//! rendered by [`eqsql_service::RequestRecord::render`]; this module's
//! round-trip test parses what that renders, so the two cannot drift
//! apart.

/// A control verb, handled by the connection's reader thread immediately
/// rather than queued behind decisions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Control {
    /// Liveness probe → `pong`.
    Ping,
    /// Live counters → one-line `stats` JSON.
    Stats,
    /// Graceful shutdown of the whole server.
    Drain,
}

/// Splits a request line's optional leading `id=N` tag from the payload.
/// Works on raw bytes (the payload may not be UTF-8 yet); a malformed tag
/// is left in place for the parser to reject as payload.
pub fn split_id(line: &[u8]) -> (Option<u64>, &[u8]) {
    let Some(rest) = line.strip_prefix(b"id=") else {
        return (None, line);
    };
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    if digits == 0 {
        return (None, line);
    }
    let (num, tail) = rest.split_at(digits);
    let Some(tail) = tail.strip_prefix(b" ") else {
        return (None, line);
    };
    let id = std::str::from_utf8(num).ok().and_then(|s| s.parse().ok());
    match id {
        Some(id) => (Some(id), trim_ascii_start(tail)),
        None => (None, line), // overflowed u64: let the parser complain
    }
}

fn trim_ascii_start(mut b: &[u8]) -> &[u8] {
    while let [first, rest @ ..] = b {
        if first.is_ascii_whitespace() {
            b = rest;
        } else {
            break;
        }
    }
    b
}

/// Recognizes a control verb (the payload after any `id=` tag).
pub fn control(payload: &[u8]) -> Option<Control> {
    match payload {
        b"ping" => Some(Control::Ping),
        b"stats" => Some(Control::Stats),
        b"drain" => Some(Control::Drain),
        _ => None,
    }
}

/// One response line, parsed. [`Client::recv`](crate::Client::recv)
/// yields these.
#[derive(Clone, Debug)]
pub enum Response {
    /// A decided (or dead) request.
    Verdict(WireVerdict),
    /// Reply to `ping`.
    Pong {
        /// The echoed request id.
        id: u64,
    },
    /// Reply to `stats`: one line of JSON.
    Stats {
        /// The echoed request id.
        id: u64,
        /// The JSON document (see [`crate::json::stats_json`]).
        json: String,
    },
    /// Reply to `drain`; the server is now shutting down.
    Draining {
        /// The echoed request id.
        id: u64,
    },
    /// The server is at its connection limit; it closes after this line.
    Busy {
        /// The server's connection limit.
        max: usize,
    },
    /// A line this client version does not recognize — kept raw so old
    /// clients degrade readably against newer servers.
    Unknown(String),
}

/// A parsed `verdict` response line. Numeric fields the line did not
/// carry (or that a newer server renamed) parse as zero rather than
/// failing: the protocol grows by appending fields.
#[derive(Clone, Debug)]
pub struct WireVerdict {
    /// The request id this verdict answers.
    pub id: u64,
    /// The request's verb label (`equivalent`, `contains-set`, …, or
    /// `unparsed` for lines that failed to parse).
    pub verb: String,
    /// The answer/error label (`equivalent`, `not-implied`,
    /// `parse-error`, …).
    pub outcome: String,
    /// `ok`, `error`, `deadline`, `cancelled`, `shed`, or `panic`.
    pub terminal: String,
    /// Whether the answer is one of the positive family.
    pub positive: bool,
    /// The evidence summary token.
    pub evidence: String,
    /// Chase steps the decision spent.
    pub steps: u64,
    /// Cache hits attributed to the decision.
    pub hits: u64,
    /// Cache misses attributed to the decision.
    pub misses: u64,
    /// Wall microseconds from socket read to completion.
    pub wall_us: u64,
    /// Per-phase timings, when the server observed the request.
    pub phase_us: Option<[u64; 5]>,
    /// The error message, for non-`ok` terminals.
    pub msg: Option<String>,
}

/// Parses one response line. Unrecognized lines come back as
/// [`Response::Unknown`], never as an error — response parsing must not
/// be a way to wedge a client.
pub fn parse_response(line: &str) -> Response {
    let line = line.trim_end();
    if let Some(rest) = line.strip_prefix("pong ") {
        return Response::Pong { id: field_u64(rest, "id") };
    }
    if let Some(rest) = line.strip_prefix("stats ") {
        let json = rest.split_once(' ').map(|(_, j)| j.to_string()).unwrap_or_default();
        return Response::Stats { id: field_u64(rest, "id"), json };
    }
    if let Some(rest) = line.strip_prefix("draining ") {
        return Response::Draining { id: field_u64(rest, "id") };
    }
    if let Some(rest) = line.strip_prefix("busy ") {
        return Response::Busy { max: field_u64(rest, "max") as usize };
    }
    if let Some(rest) = line.strip_prefix("verdict ") {
        let (fields, msg) = match rest.split_once(" msg=") {
            Some((f, m)) => (f, Some(m.to_string())),
            None => (rest, None),
        };
        let get = |key: &str| field_str(fields, key).unwrap_or_default().to_string();
        let phase_us = field_str(fields, "queue_us").map(|_| {
            ["queue_us", "regularize_us", "chase_us", "cache_us", "evidence_us"]
                .map(|k| field_u64(fields, k))
        });
        return Response::Verdict(WireVerdict {
            id: field_u64(fields, "id"),
            verb: get("verb"),
            outcome: get("outcome"),
            terminal: get("terminal"),
            positive: field_str(fields, "positive") == Some("true"),
            evidence: get("evidence"),
            steps: field_u64(fields, "steps"),
            hits: field_u64(fields, "hits"),
            misses: field_u64(fields, "misses"),
            wall_us: field_u64(fields, "wall_us"),
            phase_us,
            msg,
        });
    }
    Response::Unknown(line.to_string())
}

fn field_str<'a>(fields: &'a str, key: &str) -> Option<&'a str> {
    fields
        .split_ascii_whitespace()
        .find_map(|tok| tok.split_once('=').filter(|(k, _)| *k == key).map(|(_, v)| v))
}

fn field_u64(fields: &str, key: &str) -> u64 {
    field_str(fields, key).and_then(|v| v.parse().ok()).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_tags_split_off_raw_bytes() {
        assert_eq!(split_id(b"id=7 ping"), (Some(7), &b"ping"[..]));
        assert_eq!(split_id(b"id=42  pair: x"), (Some(42), &b"pair: x"[..]));
        assert_eq!(split_id(b"ping"), (None, &b"ping"[..]));
        // Malformed tags stay in the payload for the parser to reject.
        assert_eq!(split_id(b"id= pair"), (None, &b"id= pair"[..]));
        assert_eq!(split_id(b"id=7x pair"), (None, &b"id=7x pair"[..]));
        assert_eq!(
            split_id(b"id=99999999999999999999 x"),
            (None, &b"id=99999999999999999999 x"[..])
        );
        assert_eq!(control(b"drain"), Some(Control::Drain));
        assert_eq!(control(b"drain now"), None);
    }

    #[test]
    fn verdict_lines_round_trip() {
        use eqsql_service::{DecisionStats, Error, RequestRecord};
        let stats =
            DecisionStats { chase_steps: 12, cache_hits: 3, cache_misses: 1, ..Default::default() };
        let mut record = RequestRecord {
            stats,
            verb: "equivalent",
            wall_us: 7,
            ..RequestRecord::unparsed(9, Error::Cancelled { steps: 310 })
        };
        // Unobserved: no phase or attribution fields.
        let line = record.render();
        assert_eq!(
            line,
            "verdict id=9 verb=equivalent outcome=cancelled terminal=cancelled positive=false \
             evidence=none steps=12 hits=3 misses=1 wall_us=7 msg=cancelled after 310 chase steps"
        );
        let Response::Verdict(v) = parse_response(&line) else { panic!("not a verdict: {line}") };
        assert_eq!(v.id, 9);
        assert_eq!(v.verb, "equivalent");
        assert_eq!(v.outcome, "cancelled");
        assert_eq!(v.terminal, "cancelled");
        assert!(!v.positive);
        assert_eq!(v.evidence, "none");
        assert_eq!((v.steps, v.hits, v.misses, v.wall_us), (12, 3, 1, 7));
        assert_eq!(v.phase_us, None);
        assert_eq!(v.msg.as_deref(), Some("cancelled after 310 chase steps"));

        // Observed: the phases and the attribution fields sit between
        // `wall_us` and `msg`.
        record.phase_us = Some([1, 2, 3, 4, 5]);
        (record.attempts, record.engine_steps, record.scans) = (2, 10, 14);
        (record.mem_hits, record.disk_hits, record.wall_us) = (2, 1, 5120);
        let line = record.render();
        assert_eq!(
            line,
            "verdict id=9 verb=equivalent outcome=cancelled terminal=cancelled positive=false \
             evidence=none steps=12 hits=3 misses=1 wall_us=5120 queue_us=1 regularize_us=2 \
             chase_us=3 cache_us=4 evidence_us=5 attempts=2 engine_steps=10 scans=14 \
             mem_hits=2 disk_hits=1 msg=cancelled after 310 chase steps"
        );
        let Response::Verdict(v) = parse_response(&line) else { panic!("not a verdict: {line}") };
        assert_eq!((v.steps, v.hits, v.misses, v.wall_us), (12, 3, 1, 5120));
        assert_eq!(v.phase_us, Some([1, 2, 3, 4, 5]));
        assert_eq!(v.msg.as_deref(), Some("cancelled after 310 chase steps"));

        let line = RequestRecord::unparsed(4, Error::parse("unknown verb")).render();
        let Response::Verdict(v) = parse_response(&line) else { panic!("not a verdict: {line}") };
        assert_eq!((v.id, v.verb.as_str(), v.outcome.as_str()), (4, "unparsed", "parse-error"));
        assert_eq!((v.terminal.as_str(), v.wall_us), ("error", 0));

        // A multi-line panic message (an `assert_eq!` report) still renders
        // as one line: `msg` runs to end of line, so CR and LF become
        // spaces.
        let panic = Error::internal("tuple arity mismatch\n  left: 2\r\n right: 1");
        let line = RequestRecord::unparsed(5, panic).render();
        assert!(!line.contains(['\n', '\r']), "verdict line spans lines: {line:?}");
        let Response::Verdict(v) = parse_response(&line) else { panic!("not a verdict: {line}") };
        assert_eq!((v.id, v.outcome.as_str(), v.terminal.as_str()), (5, "internal", "panic"));
        assert_eq!(
            v.msg.as_deref(),
            Some("internal error: tuple arity mismatch   left: 2   right: 1")
        );
    }

    #[test]
    fn control_replies_round_trip() {
        assert!(matches!(parse_response("pong id=3"), Response::Pong { id: 3 }));
        assert!(matches!(parse_response("draining id=0"), Response::Draining { id: 0 }));
        assert!(matches!(parse_response("busy max=64"), Response::Busy { max: 64 }));
        match parse_response("stats id=5 {\"requests\":1}") {
            Response::Stats { id: 5, json } => assert_eq!(json, "{\"requests\":1}"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(parse_response("??? what"), Response::Unknown(_)));
    }
}
