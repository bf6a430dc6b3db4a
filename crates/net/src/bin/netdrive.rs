//! `netdrive` — drive a running `eqsql-serve --listen` server with the
//! request lines of a request file, over one or more concurrent clients.
//!
//! ```text
//! netdrive [--clients N] [--stats] [--drain] [--verbose] ADDR FILE
//! ```
//!
//! Reads FILE (the `eqsql_service::request` format), keeps only its verb
//! lines (headers like `sigma:` configure a server at startup, not over
//! the wire), splits them round-robin across N concurrent connections,
//! pipelines each split, and aggregates the verdicts into one summary:
//!
//! ```text
//! split: 7 positive, 6 other, 0 errors (13 verdicts over 2 client(s))
//! ```
//!
//! `--stats` then fetches the `stats` JSON and machine-validates it
//! (printing `stats: ok` or failing), and `--drain` asks the server to
//! shut down gracefully. Exit code is nonzero on connection failures,
//! response-count mismatches, or invalid stats JSON — this is the CI
//! smoke driver for the net path.

use eqsql_net::{validate_json, Client};
use eqsql_service::request_lines;
use std::process::ExitCode;

const USAGE: &str = "usage: netdrive [--clients N] [--stats] [--drain] [--verbose] ADDR FILE";

struct Args {
    addr: String,
    file: String,
    clients: usize,
    stats: bool,
    drain: bool,
    verbose: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut addr = None;
    let mut file = None;
    let mut clients = 1usize;
    let (mut stats, mut drain, mut verbose) = (false, false, false);
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--clients" => {
                clients = it
                    .next()
                    .ok_or("--clients wants a number")?
                    .parse::<usize>()
                    .map_err(|_| "--clients wants a number".to_string())?
                    .max(1);
            }
            "--stats" => stats = true,
            "--drain" => drain = true,
            "--verbose" => verbose = true,
            "--help" | "-h" => return Ok(None),
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other if addr.is_none() => addr = Some(other.to_string()),
            other if file.is_none() => file = Some(other.to_string()),
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    let addr = addr.ok_or("missing server ADDR")?;
    let file = file.ok_or("missing request FILE")?;
    Ok(Some(Args { addr, file, clients, stats, drain, verbose }))
}

/// One client's work: pipeline every line, then collect exactly as many
/// verdicts. Returns `(positive, other, errors)` counts.
fn drive(addr: &str, lines: &[String], verbose: bool) -> Result<(usize, usize, usize), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut sent = Vec::with_capacity(lines.len());
    for line in lines {
        sent.push(client.send(line).map_err(|e| format!("send: {e}"))?);
    }
    client.finish_sending().ok();
    let (mut positive, mut other, mut errors) = (0, 0, 0);
    for _ in 0..lines.len() {
        let v = match client.recv_verdict() {
            Ok(Some(v)) => v,
            Ok(None) => return Err("server closed before all verdicts arrived".into()),
            Err(e) => return Err(format!("recv: {e}")),
        };
        if verbose {
            println!(
                "verdict id={} verb={} outcome={} terminal={}",
                v.id, v.verb, v.outcome, v.terminal
            );
        }
        if !sent.contains(&v.id) {
            return Err(format!("verdict for unknown id {}", v.id));
        }
        if v.terminal != "ok" {
            errors += 1;
        } else if v.positive {
            positive += 1;
        } else {
            other += 1;
        }
    }
    Ok((positive, other, errors))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let text = match std::fs::read_to_string(&args.file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("netdrive: cannot read {}: {e}", args.file);
            return ExitCode::FAILURE;
        }
    };
    let lines = request_lines(&text);
    if lines.is_empty() {
        eprintln!("netdrive: {} has no request lines", args.file);
        return ExitCode::FAILURE;
    }
    // Round-robin split, one slice per client, driven concurrently.
    let splits: Vec<Vec<String>> = (0..args.clients)
        .map(|k| lines.iter().skip(k).step_by(args.clients).cloned().collect())
        .collect();
    let results: Vec<Result<(usize, usize, usize), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = splits
            .iter()
            .map(|split| scope.spawn(|| drive(&args.addr, split, args.verbose)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("driver thread panicked")).collect()
    });
    let (mut positive, mut other, mut errors) = (0, 0, 0);
    for r in results {
        match r {
            Ok((p, o, e)) => {
                positive += p;
                other += o;
                errors += e;
            }
            Err(msg) => {
                eprintln!("netdrive: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "split: {positive} positive, {other} other, {errors} errors \
         ({} verdicts over {} client(s))",
        positive + other + errors,
        args.clients
    );
    if args.stats || args.drain {
        let mut control = match Client::connect(&args.addr) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("netdrive: control connect: {e}");
                return ExitCode::FAILURE;
            }
        };
        if args.stats {
            match control.stats() {
                Ok(Some(json)) => match validate_json(&json) {
                    Ok(()) => println!("stats: ok ({} bytes)", json.len()),
                    Err(e) => {
                        eprintln!("netdrive: stats JSON invalid: {e}\n{json}");
                        return ExitCode::FAILURE;
                    }
                },
                Ok(None) => {
                    eprintln!("netdrive: server closed before answering stats");
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("netdrive: stats: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if args.drain {
            match control.drain() {
                Ok(()) => println!("drained"),
                Err(e) => {
                    eprintln!("netdrive: drain: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::request_lines;

    #[test]
    fn header_lines_are_not_sent() {
        let lines = request_lines(
            "# c\nsigma: a(X) -> b(X).\nset_valued: b\nmax_steps: 9\n\n\
             pair: set | q(X) :- a(X) | q(X) :- a(X), b(X)\nimplies: a(X) -> b(X).\n",
        );
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("pair:"));
    }

    #[test]
    fn drain_before_verdicts_is_an_error_path_not_a_hang() {
        // Pure parse check: the Response enum distinguishes the shapes
        // drive() relies on.
        use eqsql_net::Response;
        assert!(matches!(
            eqsql_net::proto::parse_response("draining id=1"),
            Response::Draining { .. }
        ));
    }
}
