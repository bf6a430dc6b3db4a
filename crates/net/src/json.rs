//! Dependency-free JSON for the `stats` control verb: a hand-rolled
//! encoder for [`SolverStats`] plus the [`ServerReport`] (every field is
//! an unsigned integer or an array of them, so encoding is string
//! assembly, not a framework) and a strict validator the tests — and
//! `netdrive --stats` — check the output with, so "well-formed stats
//! JSON" is asserted by machine, not by eyeball.

use crate::server::ServerReport;
use eqsql_service::SolverStats;

/// Encodes a [`SolverStats`] snapshot and the server's accounting as one
/// line of JSON. Keys mirror the struct fields (`requests`, `batches`,
/// `shed`, `retries`, `panics`, `latency{count,mean,p50,p90,p99,max}`,
/// `phase{queue_us,…,evidence_us}`, `cache{hits,misses,evictions,
/// entries,shard_entries,persist{loaded,…,io_errors}}`,
/// `server{connections,rejected,served,peak_in_flight,peak_deciders}`);
/// every value is a non-negative integer, so the document needs no
/// string escaping.
pub fn stats_json(s: &SolverStats, server: &ServerReport) -> String {
    let l = &s.latency;
    let p = &s.phase;
    let c = &s.cache;
    let pe = &c.persist;
    let r = server;
    let shards = c.shard_entries.iter().map(|n| n.to_string()).collect::<Vec<_>>().join(",");
    format!(
        "{{\"requests\":{},\"batches\":{},\"shed\":{},\"retries\":{},\"panics\":{},\
         \"latency\":{{\"count\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}},\
         \"phase\":{{\"queue_us\":{},\"regularize_us\":{},\"chase_us\":{},\"cache_us\":{},\"evidence_us\":{}}},\
         \"cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"entries\":{},\
         \"shard_entries\":[{}],\
         \"persist\":{{\"loaded\":{},\"recovered\":{},\"discarded\":{},\"snapshots\":{},\
         \"appended\":{},\"disk_hits\":{},\"io_errors\":{}}}}},\
         \"server\":{{\"connections\":{},\"rejected\":{},\"served\":{},\
         \"peak_in_flight\":{},\"peak_deciders\":{}}}}}",
        s.requests, s.batches, s.shed, s.retries, s.panics,
        l.count, l.mean, l.p50, l.p90, l.p99, l.max,
        p.queue_us, p.regularize_us, p.chase_us, p.cache_us, p.evidence_us,
        c.hits, c.misses, c.evictions, c.entries, shards,
        pe.loaded, pe.recovered, pe.discarded, pe.snapshots,
        pe.appended, pe.disk_hits, pe.io_errors,
        r.connections, r.rejected, r.served, r.peak_in_flight, r.peak_deciders,
    )
}

/// Validates that `text` is exactly one JSON value (RFC 8259 grammar:
/// objects, arrays, strings with escapes, numbers, literals) with
/// nothing but whitespace around it. Returns the byte offset and a
/// description on the first violation.
pub fn validate_json(text: &str) -> Result<(), String> {
    let b = text.as_bytes();
    let mut pos = 0;
    skip_ws(b, &mut pos);
    value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("byte {pos}: trailing garbage after the JSON value"));
    }
    Ok(())
}

fn fail(pos: usize, what: &str) -> Result<(), String> {
    Err(format!("byte {pos}: {what}"))
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while b.get(*pos).is_some_and(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r')) {
        *pos += 1;
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    match b.get(*pos) {
        Some(b'{') => object(b, pos),
        Some(b'[') => array(b, pos),
        Some(b'"') => string(b, pos),
        Some(b'-' | b'0'..=b'9') => number(b, pos),
        Some(_) => literal(b, pos),
        None => fail(*pos, "expected a value, found end of input"),
    }
}

fn object(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return fail(*pos, "expected a string key");
        }
        string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return fail(*pos, "expected ':' after key");
        }
        *pos += 1;
        skip_ws(b, pos);
        value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return fail(*pos, "expected ',' or '}' in object"),
        }
    }
}

fn array(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return fail(*pos, "expected ',' or ']' in array"),
        }
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // opening '"'
    loop {
        match b.get(*pos) {
            None => return fail(*pos, "unterminated string"),
            Some(b'"') => {
                *pos += 1;
                return Ok(());
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            if !b.get(*pos).is_some_and(u8::is_ascii_hexdigit) {
                                return fail(*pos, "bad \\u escape");
                            }
                            *pos += 1;
                        }
                    }
                    _ => return fail(*pos, "bad escape"),
                }
            }
            Some(c) if *c < 0x20 => return fail(*pos, "raw control character in string"),
            Some(_) => *pos += 1,
        }
    }
}

fn number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_start = *pos;
    while b.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    let int_len = *pos - int_start;
    if int_len == 0 {
        return fail(*pos, "number with no digits");
    }
    if int_len > 1 && b[int_start] == b'0' {
        return fail(int_start, "number with a leading zero");
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        let start = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        if *pos == start {
            return fail(*pos, "fraction with no digits");
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let start = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        if *pos == start {
            return fail(*pos, "exponent with no digits");
        }
    }
    Ok(())
}

fn literal(b: &[u8], pos: &mut usize) -> Result<(), String> {
    for lit in ["true", "false", "null"] {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            return Ok(());
        }
    }
    fail(*pos, "expected a JSON value")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_encode_as_valid_json() {
        let mut s = SolverStats::default();
        s.requests = 13;
        s.cache.shard_entries = vec![0, 3, 1];
        s.latency.p99 = 4096;
        let r = ServerReport { peak_in_flight: 3, peak_deciders: 2, ..ServerReport::default() };
        let json = stats_json(&s, &r);
        validate_json(&json).unwrap_or_else(|e| panic!("{e}\n{json}"));
        assert!(json.contains("\"requests\":13"));
        assert!(json.contains("\"shard_entries\":[0,3,1]"));
        assert!(json.contains("\"p99\":4096"));
        assert!(json.contains("\"peak_in_flight\":3,\"peak_deciders\":2}}"));
        assert!(!json.contains('\n'));
    }

    #[test]
    fn validator_accepts_rfc_shapes() {
        for ok in [
            "{}",
            "[]",
            "  null ",
            "-0.5e+10",
            "[1,2,[3,{\"a\":\"b\\n\\u00e9\"}],true,false,null]",
            "{\"k\":{\"nested\":[{},{}]}}",
        ] {
            validate_json(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
    }

    #[test]
    fn validator_rejects_non_json() {
        for bad in [
            "",
            "{",
            "}",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1,]",
            "[1 2]",
            "01",
            "1.",
            "1e",
            "\"unterminated",
            "\"bad\\q\"",
            "\"ctrl\u{0}\"",
            "nul",
            "{} trailing",
            "{'single':1}",
        ] {
            assert!(validate_json(bad).is_err(), "accepted {bad:?}");
        }
    }
}
