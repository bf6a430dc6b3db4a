//! End-to-end tests of the `eqsql_net` TCP server: the socket path must
//! be *verdict-identical* to file mode (same solver, same requests, same
//! outcome labels), concurrent clients must interleave without
//! cross-talk or shedding, one decision pool must bound the work of all
//! connections together, a `drain` must wake every blocked thread and
//! cancel in-flight work into clean `terminal=cancelled` verdicts and a
//! clean close, and hostile input (malformed lines, over-limit
//! connections) must degrade per-line / per-connection, never per-server.

use eqsql_net::{Client, Response, Server, ServerConfig, ServerReport};
use eqsql_service::{
    parse_request_file, request_lines, AdmissionConfig, BatchOptions, ShedPolicy, Solver,
    SolverBuilder, TraceSink, VecSink,
};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The committed smoke fixture: Example 4.1 over the full verb family,
/// 13 requests splitting 7 positive / 6 other / 0 errors.
fn smoke_text() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates/service/fixtures/smoke.req");
    std::fs::read_to_string(path).expect("smoke fixture readable")
}

/// A solver over a request file's Σ, schema and budgets.
fn solver_for(text: &str) -> SolverBuilder {
    let parsed = parse_request_file(text).expect("fixture parses");
    Solver::builder(parsed.sigma, parsed.schema).chase_config(parsed.config)
}

fn serve(solver: Solver, config: ServerConfig) -> (Server, Arc<Solver>) {
    let solver = Arc::new(solver);
    let server = Server::start(Arc::clone(&solver), "127.0.0.1:0", config)
        .expect("bind an ephemeral loopback port");
    (server, solver)
}

fn start_server(text: &str, config: ServerConfig) -> (Server, Arc<Solver>) {
    serve(solver_for(text).build(), config)
}

/// File mode's per-line `(outcome label, positive)` over a request file:
/// one solver, sequential decides.
fn file_mode_labels(text: &str) -> Vec<(String, bool)> {
    let parsed = parse_request_file(text).unwrap();
    let file_solver = solver_for(text).build();
    parsed
        .requests
        .iter()
        .map(|req| match file_solver.decide(req) {
            Ok(v) => (v.answer.label().to_string(), v.is_positive()),
            Err(e) => (e.labels().0.to_string(), false),
        })
        .collect()
}

/// The unsigned integer under `"key":` in a `stats` JSON document (the
/// keys read here occur once).
fn json_u64(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat).unwrap_or_else(|| panic!("no {key} in {json}")) + pat.len();
    let digits: String = json[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap_or_else(|_| panic!("{key} is not a number in {json}"))
}

/// Joins `server` on a helper thread, failing the test if that takes more
/// than 10 s — a drain that misses a blocked thread fails here instead of
/// hanging the suite.
fn join_within_10s(server: Server) -> ServerReport {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(server.join());
    });
    rx.recv_timeout(Duration::from_secs(10)).expect("join returned within 10 s of the drain")
}

/// N concurrent clients splitting the smoke fixture round-robin must
/// reproduce, line for line, the outcome labels of file mode over the
/// same solver configuration — and the shared admission accounting must
/// show exactly zero sheds and retries (default envelope admits all).
#[test]
fn concurrent_clients_match_file_mode_verdict_for_verdict() {
    let text = smoke_text();
    let lines = request_lines(&text);
    assert_eq!(lines.len(), 13, "smoke fixture drifted");

    let expected = file_mode_labels(&text);
    assert_eq!(expected.len(), lines.len(), "one request per verb line");
    assert_eq!(expected.iter().filter(|(_, pos)| *pos).count(), 7, "{expected:?}");
    assert!(expected.iter().all(|(label, _)| !label.ends_with("error")), "{expected:?}");

    let (server, solver) = start_server(&text, ServerConfig::default());
    let addr = server.local_addr().to_string();
    const CLIENTS: usize = 3;
    // client k takes lines k, k+N, k+2N, … — interleaved, pipelined.
    let got: Vec<(usize, String, bool)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|k| {
                let addr = &addr;
                let lines = &lines;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut line_of_id: HashMap<u64, usize> = HashMap::new();
                    for (global, line) in lines.iter().enumerate().skip(k).step_by(CLIENTS) {
                        let id = client.send(line).expect("send");
                        line_of_id.insert(id, global);
                    }
                    client.finish_sending().expect("half-close");
                    let mut out = Vec::new();
                    for _ in 0..line_of_id.len() {
                        let v = client
                            .recv_verdict()
                            .expect("recv")
                            .expect("a verdict per request before close");
                        let global = *line_of_id.get(&v.id).expect("verdict for a sent id");
                        out.push((global, v.outcome, v.positive));
                    }
                    assert!(client.recv().expect("clean close").is_none());
                    out
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });

    assert_eq!(got.len(), lines.len(), "one verdict per line across all clients");
    for (global, outcome, positive) in got {
        assert_eq!(
            (outcome.as_str(), positive),
            (expected[global].0.as_str(), expected[global].1),
            "line {global} diverged from file mode: {}",
            lines[global]
        );
    }
    let stats = solver.stats();
    assert_eq!(
        (stats.shed, stats.retries, stats.panics),
        (0, 0, 0),
        "default envelope must admit everything exactly once: {stats:?}"
    );
    assert_eq!(stats.requests, lines.len() as u64, "{stats:?}");
    server.drain();
    let report = server.join();
    assert_eq!(report.connections, CLIENTS as u64, "{report:?}");
    assert_eq!(report.served, lines.len() as u64, "{report:?}");
}

/// `drain` with a decision in flight: the in-flight chase is cancelled
/// through the batch token, its verdict still arrives (one response per
/// request, `terminal=cancelled`), and the connection then closes
/// cleanly. The server's `join` returns.
#[test]
fn drain_mid_batch_cancels_in_flight_into_verdicts() {
    // A diverging Σ under an enormous step budget: without cancellation
    // this request runs for minutes.
    let text = "sigma: e(X,Y) -> e(Y,Z).\n\
                pair: set | q(X) :- e(X,Y) | q(X) :- e(X,Y), e(Y,Z)\n";
    let (server, _solver) = start_server(text, ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client
        .send("equivalent: set max_steps=100000000 | q(X) :- e(X,Y) | q(X) :- e(X,Y), e(Y,Z)")
        .expect("send");
    // Let a decider pick the request up so the cancel lands mid-chase.
    std::thread::sleep(Duration::from_millis(300));
    client.drain().expect("draining acknowledged");
    let v = client
        .recv_verdict()
        .expect("recv")
        .expect("cancelled requests still produce a verdict line");
    assert_eq!(v.terminal, "cancelled", "{v:?}");
    assert_eq!(v.outcome, "cancelled", "{v:?}");
    assert!(!v.positive, "{v:?}");
    assert!(client.recv().expect("clean close after flush").is_none());
    let report = server.join();
    assert_eq!(report.served, 1, "{report:?}");
}

/// Malformed lines are answered per line — unknown verbs, header
/// keywords, unknown relations, oversized lines — and the connection
/// keeps serving valid requests afterwards.
#[test]
fn malformed_lines_degrade_per_line_not_per_connection() {
    let text = smoke_text();
    let (server, _solver) = start_server(&text, ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");

    for bad in [
        "frobnicate: q(X) :- p(X,Y)".to_string(),
        "sigma: p(X,Y) -> s(X,Z).".to_string(),
        "pair: set | q(X) :- zzz(X) | q(X) :- zzz(X)".to_string(),
        format!("pair: set | q(X) :- {} | q(X) :- p(X,Y)", "a".repeat(70_000)),
    ] {
        let id = client.send(&bad).expect("send");
        let v = client.recv_verdict().expect("recv").expect("a verdict per bad line");
        assert_eq!(v.id, id, "parse errors answer under the request's id");
        assert_eq!((v.outcome.as_str(), v.terminal.as_str()), ("parse-error", "error"), "{v:?}");
        assert!(v.msg.is_some(), "parse errors carry the parser message: {v:?}");
    }

    assert!(client.ping().expect("ping"), "connection must survive hostile lines");
    client.send("minimal: set | q4(X) :- p(X,Y)").expect("send");
    let v = client.recv_verdict().expect("recv").expect("verdict");
    assert_eq!((v.outcome.as_str(), v.terminal.as_str()), ("minimal", "ok"), "{v:?}");
    drop(client);
    server.drain();
    server.join();
}

/// The `max_connections`-th+1 connection gets one `busy max=N` line and
/// a close; the connection it would have displaced is unaffected.
#[test]
fn over_limit_connections_are_rejected_with_busy() {
    let text = smoke_text();
    let (server, _solver) =
        start_server(&text, ServerConfig { max_connections: 1, ..ServerConfig::default() });
    let mut first = Client::connect(server.local_addr()).expect("connect");
    assert!(first.ping().expect("first connection is live"));

    let mut second = Client::connect(server.local_addr()).expect("TCP connect still succeeds");
    match second.recv().expect("read the rejection") {
        Some(Response::Busy { max }) => assert_eq!(max, 1),
        other => panic!("expected busy, got {other:?}"),
    }
    assert!(second.recv().expect("rejected connection closes").is_none());

    assert!(first.ping().expect("surviving connection unaffected"));
    drop(first);
    drop(second);
    server.drain();
    let report = server.join();
    assert_eq!((report.connections, report.rejected), (1, 1), "{report:?}");
}

/// Four pipelining connections against a two-thread solver and a
/// server-wide admission capacity of 3: the pool never holds more than 3
/// requests queued or deciding, never runs more than 2 at once, answers
/// every request exactly once (decided or shed), and every decided
/// verdict still matches file mode.
#[test]
fn one_pool_bounds_the_work_of_all_connections() {
    const CLIENTS: usize = 4;
    const PASSES: usize = 5;
    let text = smoke_text();
    let lines = request_lines(&text);
    let expected = file_mode_labels(&text);
    let sent = (CLIENTS * PASSES * lines.len()) as u64;
    for policy in [ShedPolicy::RejectNew, ShedPolicy::CancelOldest] {
        let batch = BatchOptions {
            admission: Some(AdmissionConfig { capacity: 3, policy }),
            ..BatchOptions::default()
        };
        let (server, _solver) = serve(
            solver_for(&text).threads(2).build(),
            ServerConfig { batch, ..Default::default() },
        );
        let addr = server.local_addr();
        let shed: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    let (lines, expected) = (&lines, &expected);
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).expect("connect");
                        let mut line_of_id = HashMap::new();
                        for _ in 0..PASSES {
                            for (k, line) in lines.iter().enumerate() {
                                line_of_id.insert(client.send(line).expect("send"), k);
                            }
                        }
                        client.finish_sending().expect("half-close");
                        let mut shed = 0;
                        while let Some(v) = client.recv_verdict().expect("recv") {
                            let k = line_of_id.remove(&v.id).expect("one verdict per sent id");
                            if v.terminal == "shed" {
                                assert_eq!(v.outcome, "shed", "{v:?}");
                                shed += 1;
                            } else {
                                assert_eq!(
                                    (v.outcome.as_str(), v.positive),
                                    (expected[k].0.as_str(), expected[k].1),
                                    "line {k} diverged from file mode under {policy:?}"
                                );
                            }
                        }
                        assert!(line_of_id.is_empty(), "unanswered ids: {line_of_id:?}");
                        shed
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).sum()
        });
        let json = Client::connect(addr).expect("connect").stats().expect("stats").expect("json");
        assert!(json_u64(&json, "peak_in_flight") <= 3, "{policy:?}: {json}");
        assert!(json_u64(&json, "peak_deciders") <= 2, "{policy:?}: {json}");
        assert_eq!(json_u64(&json, "shed"), shed as u64, "{policy:?}: {json}");
        assert_eq!(json_u64(&json, "requests") + json_u64(&json, "shed"), sent, "{json}");
        server.drain();
        let report = join_within_10s(server);
        assert_eq!(report.served, sent, "{report:?}");
    }
}

/// Past the server-wide capacity, `reject-new` sheds the arriving request
/// and `cancel-oldest` the oldest queued one — never the request already
/// deciding. Capacity 2 on one decider: a diverging request holds the
/// decider, a second request waits in the queue, and a third overflows.
#[test]
fn shedding_spares_the_deciding_request() {
    let text = "sigma: e(X,Y) -> e(Y,Z).\n\
                pair: set | q(X) :- e(X,Y) | q(X) :- e(X,Y), e(Y,Z)\n";
    let slow = "equivalent: set max_steps=100000000 | q(X) :- e(X,Y) | q(X) :- e(X,Y), e(Y,Z)";
    let quick = "contains: | q(X) :- e(X,Y) | q(X) :- e(X,Y)";
    for policy in [ShedPolicy::RejectNew, ShedPolicy::CancelOldest] {
        let batch = BatchOptions {
            admission: Some(AdmissionConfig { capacity: 2, policy }),
            ..BatchOptions::default()
        };
        let (server, _solver) = start_server(text, ServerConfig { batch, ..Default::default() });
        let mut client = Client::connect(server.local_addr()).expect("connect");
        client.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        let slow_id = client.send(slow).expect("send");
        // Wait (boundedly) until the decider has taken the slow request.
        let until = Instant::now() + Duration::from_secs(10);
        while json_u64(&client.stats().expect("stats").expect("json"), "peak_deciders") == 0 {
            assert!(Instant::now() < until, "the slow request never started deciding");
            std::thread::sleep(Duration::from_millis(1));
        }
        let queued = client.send(quick).expect("send");
        let arriving = client.send(quick).expect("send");
        let v = client.recv_verdict().expect("recv").expect("the shed verdict comes at once");
        let victim = match policy {
            ShedPolicy::RejectNew => arriving,
            ShedPolicy::CancelOldest => queued,
        };
        assert_eq!((v.id, v.terminal.as_str()), (victim, "shed"), "{policy:?}: {v:?}");
        client.drain().expect("draining acknowledged");
        let mut rest = Vec::new();
        while let Some(v) = client.recv_verdict().expect("recv") {
            assert_eq!(v.terminal, "cancelled", "{v:?}");
            rest.push(v.id);
        }
        rest.sort_unstable();
        let survivor = if victim == queued { arriving } else { queued };
        assert_eq!(rest, vec![slow_id, survivor], "{policy:?}");
        let report = join_within_10s(server);
        assert_eq!(report.served, 3, "{report:?}");
    }
}

/// Socket-path trace lines name each request by the client's wire id,
/// and each is the very line the client received for that id.
#[test]
fn socket_trace_events_carry_wire_ids() {
    let text = smoke_text();
    let sink = Arc::new(VecSink::new());
    let solver = solver_for(&text).trace_sink(Arc::clone(&sink) as Arc<dyn TraceSink>).build();
    let (server, _solver) = serve(solver, ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for id in [7, 9, 11] {
        client.send_raw(&format!("id={id} minimal: set | q4(X) :- p(X,Y)")).expect("send");
    }
    let mut received = HashMap::new();
    for _ in 0..3 {
        let v = client.recv_verdict().expect("recv").expect("verdict");
        received.insert(v.id, format!("{v:?}"));
    }
    drop(client);
    server.drain();
    join_within_10s(server);
    let mut reqs: Vec<u64> = sink
        .lines()
        .iter()
        .map(|line| {
            let Response::Verdict(traced) = eqsql_net::proto::parse_response(line) else {
                panic!("the trace line is not a verdict line: {line}");
            };
            assert_eq!(Some(&format!("{traced:?}")), received.get(&traced.id), "{line}");
            let tok = line.split(' ').find_map(|t| t.strip_prefix("id=")).expect("id= key");
            tok.parse().expect("numeric req")
        })
        .collect();
    reqs.sort_unstable();
    assert_eq!(reqs, [7, 9, 11]);
}

/// A server that never accepted a connection still drains: the drain
/// wakes the accept thread out of its blocking `accept`.
#[test]
fn drain_wakes_an_idle_accept_loop() {
    let (server, _solver) = start_server(&smoke_text(), ServerConfig::default());
    server.drain();
    let report = join_within_10s(server);
    assert_eq!((report.connections, report.served), (0, 0), "{report:?}");
}

/// Idle connections — pinged, no requests — end at a drain: both readers
/// are woken out of their blocking `read`, both clients see end of
/// input, and `join` returns.
#[test]
fn drain_closes_idle_connections() {
    let (server, _solver) = start_server(&smoke_text(), ServerConfig::default());
    let mut clients: Vec<Client> = (0..2)
        .map(|_| {
            let mut c = Client::connect(server.local_addr()).expect("connect");
            c.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
            assert!(c.ping().expect("ping"));
            c
        })
        .collect();
    server.drain();
    let report = join_within_10s(server);
    assert_eq!(report.connections, 2, "{report:?}");
    for c in &mut clients {
        assert!(c.recv().expect("end of input, not a timeout").is_none());
    }
}
