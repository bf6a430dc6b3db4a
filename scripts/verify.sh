#!/usr/bin/env bash
# The repo's verify path: tier-1 (build + tests) plus compile checks for
# everything tier-1 does not reach — every target with warnings and clippy
# lints denied, benches (so they cannot silently rot), the
# examples/experiments binaries, the end-to-end benchmark harness, and
# rustdoc with warnings denied (so the Solver facade's public API stays
# documented).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== rustfmt (cargo fmt --check)"
cargo fmt --check

# Every target, warnings denied: a deletion that leaves a helper, a field or
# an import unused fails here rather than rotting behind a warning.
echo "== warnings denied on every target (cargo check --workspace --all-targets)"
RUSTFLAGS="-D warnings" cargo check -q --workspace --all-targets

# Lints, warnings denied, on the same targets: a new clippy warning fails
# here rather than piling up unchecked.
echo "== clippy clean (cargo clippy --workspace --all-targets, warnings denied)"
cargo clippy -q --workspace --all-targets -- -D warnings

echo "== tier-1: cargo build --release"
cargo build --release -q

echo "== tier-1: cargo test"
cargo test -q

echo "== rustdoc clean (cargo doc --no-deps, warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

echo "== benches compile (cargo bench --no-run)"
cargo bench --no-run -q

echo "== examples + experiments binaries compile"
cargo build -q -p eqsql-examples -p eqsql-bench -p eqsql-net --bins

echo "== chase_explorer smoke (the built-in tour against its committed output)"
# Traces are typed records rendered on demand; the tour prints every step
# of Example 4.1's set, bag-set and bag chases, so a rendering change shows
# up here as a diff.
diff <(cargo run -q -p eqsql-examples --bin chase_explorer) tests/fixtures/chase_explorer_tour.txt \
    || { echo "chase_explorer smoke: the built-in tour changed" >&2; exit 1; }

echo "== benchmark harness compiles (its own package; imports library internals)"
cargo check --offline -q --manifest-path e2e_bench/Cargo.toml

echo "== eqsql-serve smoke (full verb family on the committed fixture)"
SERVE_OUT="$(cargo run -q -p eqsql-net --bin eqsql-serve -- \
    --threads 2 --repeat 2 crates/service/fixtures/smoke.req)"
echo "$SERVE_OUT" | sed 's/^/  /'
echo "$SERVE_OUT" | grep -q "batch: 13 requests (7 positive, 6 other, 0 errors)" \
    || { echo "eqsql-serve smoke: unexpected verdicts" >&2; exit 1; }
echo "$SERVE_OUT" | grep -q "not-minimal" \
    || { echo "eqsql-serve smoke: minimality verb missing" >&2; exit 1; }
echo "$SERVE_OUT" | grep -q "reformulation(s)" \
    || { echo "eqsql-serve smoke: cnb verb missing" >&2; exit 1; }
echo "$SERVE_OUT" | grep -q "not-implied" \
    || { echo "eqsql-serve smoke: implies verb missing" >&2; exit 1; }

echo "== observability smoke (--metrics --trace over the committed fixture)"
TRACE_FILE="$(mktemp)"
OBS_OUT="$(cargo run -q -p eqsql-net --bin eqsql-serve -- \
    --quiet --metrics --trace "$TRACE_FILE" --threads 2 crates/service/fixtures/smoke.req)"
echo "$OBS_OUT" | grep -E '^metric:' | sed 's/^/  /'
echo "$OBS_OUT" | grep -q '^metric: latency count=13 ' \
    || { echo "obs smoke: latency metric missing or not 13 samples" >&2; exit 1; }
echo "$OBS_OUT" | grep -Eq '^metric: phase queue_us=[0-9]+ regularize_us=[0-9]+ chase_us=[0-9]+ cache_us=[0-9]+ evidence_us=[0-9]+$' \
    || { echo "obs smoke: phase metric line missing" >&2; exit 1; }
# Exactly one record line per request, each with non-negative phase
# timings that sum to at most the request's wall time.
[ "$(grep -c '^verdict ' "$TRACE_FILE")" -eq 13 ] \
    || { echo "obs smoke: expected 13 verdict lines in the trace" >&2; exit 1; }
awk '
  {
    delete kv
    for (i = 1; i <= NF; i++) { n = index($i, "="); kv[substr($i, 1, n - 1)] = substr($i, n + 1) }
    sum = 0
    split("queue_us regularize_us chase_us cache_us evidence_us", phases, " ")
    for (p in phases) {
      if (kv[phases[p]] !~ /^[0-9]+$/) { print "trace event missing " phases[p] ": " $0; exit 1 }
      sum += kv[phases[p]]
    }
    if (kv["wall_us"] !~ /^[0-9]+$/ || sum > kv["wall_us"] + 0) {
      print "trace event phase sum " sum " exceeds wall " kv["wall_us"] ": " $0; exit 1
    }
    if (kv["attempts"] + 0 < 1) { print "trace event without attempts: " $0; exit 1 }
  }
' "$TRACE_FILE" || { echo "obs smoke: malformed trace event" >&2; exit 1; }
rm -f "$TRACE_FILE"
# --metrics alone must observe too: a trace sink is the one switch.
METRICS_OUT="$(cargo run -q -p eqsql-net --bin eqsql-serve -- \
    --quiet --metrics --threads 2 crates/service/fixtures/smoke.req)"
echo "$METRICS_OUT" | grep -q '^metric: latency count=13 ' \
    || { echo "obs smoke: --metrics without --trace recorded no latencies" >&2; exit 1; }

echo "== persistence smoke (cold run, then warm restart over the same --cache-dir)"
CACHE_DIR="$(mktemp -d)"
trap 'rm -rf "$CACHE_DIR"' EXIT
COLD_OUT="$(cargo run -q -p eqsql-net --bin eqsql-serve -- \
    --cache-dir "$CACHE_DIR" crates/service/fixtures/smoke.req)"
WARM_OUT="$(cargo run -q -p eqsql-net --bin eqsql-serve -- \
    --cache-dir "$CACHE_DIR" crates/service/fixtures/smoke.req)"
# Verdicts (everything except the run-local stats lines) must be identical
# across the restart: the disk tier may change *how* an answer is computed,
# never the answer.
strip_stats() { grep -Ev '^(cache|persist|timing|backpressure):' || true; }
diff <(echo "$COLD_OUT" | strip_stats) <(echo "$WARM_OUT" | strip_stats) \
    || { echo "persist smoke: warm restart changed a verdict" >&2; exit 1; }
echo "$WARM_OUT" | grep -E '^persist:' | sed 's/^/  /'
# The restarted process must have admitted the first run's log and served
# real cache hits from it.
echo "$WARM_OUT" | grep -Eq '^cache: [1-9][0-9]* hits' \
    || { echo "persist smoke: restarted run served no cache hits" >&2; exit 1; }
echo "$WARM_OUT" | grep -Eq '^persist: .* [1-9][0-9]* disk hits' \
    || { echo "persist smoke: restarted run served no disk hits" >&2; exit 1; }
if echo "$WARM_OUT" | grep -Eq '^persist: .*io errors'; then
    echo "persist smoke: io errors reported" >&2; exit 1
fi
# A restart behind a one-entry-per-shard memory tier, deciding the file
# twice: repeat probes miss memory and take the disk-hit path again (frame
# re-verification, entry-only decode), which must not change a verdict.
DISK_OUT="$(cargo run -q -p eqsql-net --bin eqsql-serve -- \
    --cache-dir "$CACHE_DIR" --cache-capacity 1 --repeat 2 crates/service/fixtures/smoke.req)"
diff <(echo "$COLD_OUT" | strip_stats) <(echo "$DISK_OUT" | strip_stats) \
    || { echo "persist smoke: disk-path restart changed a verdict" >&2; exit 1; }
echo "$DISK_OUT" | grep -E '^persist:' | sed 's/^/  /'
echo "$DISK_OUT" | grep -Eq '^persist: .* [1-9][0-9]* disk hits' \
    || { echo "persist smoke: disk-path restart served no disk hits" >&2; exit 1; }
if echo "$DISK_OUT" | grep -Eq '^persist: .*io errors'; then
    echo "persist smoke: disk-path restart reported io errors" >&2; exit 1
fi
# A read-only replica over the same directory must leave the log untouched.
LOG_BYTES_BEFORE="$(wc -c < "$CACHE_DIR/log.eqc")"
cargo run -q -p eqsql-net --bin eqsql-serve -- --quiet \
    --cache-dir "$CACHE_DIR" --cache-read-only crates/service/fixtures/smoke.req >/dev/null
[ "$(wc -c < "$CACHE_DIR/log.eqc")" -eq "$LOG_BYTES_BEFORE" ] \
    || { echo "persist smoke: read-only replica wrote to the log" >&2; exit 1; }

echo "== fault-injection smoke (expired deadline fails every verdict, never cached)"
# --deadline-ms 0 means "already expired": every request must come back
# error (deadline exceeded), deterministically — no timing races.
FAULT_OUT="$(cargo run -q -p eqsql-net --bin eqsql-serve -- \
    --deadline-ms 0 crates/service/fixtures/smoke.req)"
echo "$FAULT_OUT" | grep -q "batch: 13 requests (0 positive, 0 other, 13 errors)" \
    || { echo "fault smoke: expected all 13 verdicts to fail" >&2; exit 1; }
[ "$(echo "$FAULT_OUT" | grep -c "error (deadline exceeded")" -eq 13 ] \
    || { echo "fault smoke: expected 13 deadline-exceeded verdicts" >&2; exit 1; }
# --strict must turn the error verdicts into a nonzero exit.
if cargo run -q -p eqsql-net --bin eqsql-serve -- \
    --strict --quiet --deadline-ms 0 crates/service/fixtures/smoke.req >/dev/null 2>&1; then
    echo "fault smoke: --strict should exit nonzero on error verdicts" >&2; exit 1
fi
# And the default run above already proved the same file decides cleanly
# (13 requests, 0 errors) when unguarded — expired runs were not cached.

echo "== net smoke (eqsql-serve --listen: four clients on two deciders, then two clients and a graceful drain)"
NET_LOG="$(mktemp)"
NET_TRACE="$(mktemp)"
trap 'rm -rf "$CACHE_DIR"; rm -f "$NET_LOG" "$NET_TRACE"' EXIT
cargo run -q -p eqsql-net --bin eqsql-serve -- --trace "$NET_TRACE" \
    --threads 2 --listen 127.0.0.1:0 crates/service/fixtures/smoke.req > "$NET_LOG" 2>&1 &
NET_PID=$!
NET_ADDR=""
for _ in $(seq 1 100); do
    NET_ADDR="$(sed -n 's/^listening on //p' "$NET_LOG")"
    [ -n "$NET_ADDR" ] && break
    kill -0 "$NET_PID" 2>/dev/null \
        || { cat "$NET_LOG" >&2; echo "net smoke: server died before listening" >&2; exit 1; }
    sleep 0.1
done
[ -n "$NET_ADDR" ] \
    || { cat "$NET_LOG" >&2; echo "net smoke: server never reported its address" >&2; exit 1; }
# More connections than deciders: the server's one decision pool serves
# all four clients with --threads 2.
POOL_OUT="$(cargo run -q -p eqsql-net --bin netdrive -- \
    --clients 4 "$NET_ADDR" crates/service/fixtures/smoke.req)"
echo "$POOL_OUT" | sed 's/^/  /'
echo "$POOL_OUT" | grep -q "split: 7 positive, 6 other, 0 errors (13 verdicts over 4 client(s))" \
    || { echo "net smoke: pooled socket verdicts diverge from file mode" >&2; exit 1; }
NET_OUT="$(cargo run -q -p eqsql-net --bin netdrive -- \
    --clients 2 --stats --drain "$NET_ADDR" crates/service/fixtures/smoke.req)"
echo "$NET_OUT" | sed 's/^/  /'
# The socket path must split the fixture exactly like file mode does.
echo "$NET_OUT" | grep -q "split: 7 positive, 6 other, 0 errors (13 verdicts over 2 client(s))" \
    || { echo "net smoke: socket verdicts diverge from file mode" >&2; exit 1; }
echo "$NET_OUT" | grep -q "^stats: ok" \
    || { echo "net smoke: stats verb returned missing or invalid JSON" >&2; exit 1; }
# The drain must let the server exit cleanly with its final accounting.
wait "$NET_PID" \
    || { cat "$NET_LOG" >&2; echo "net smoke: drained server exited nonzero" >&2; exit 1; }
grep -Eq '^net: 7 connection\(s\) accepted, 0 rejected, 26 request\(s\) served' "$NET_LOG" \
    || { cat "$NET_LOG" >&2; echo "net smoke: final net accounting line wrong" >&2; exit 1; }
# The trace holds the record line of every served request.
[ "$(grep -c '^verdict ' "$NET_TRACE")" -eq 26 ] \
    || { echo "net smoke: expected 26 verdict lines in the trace" >&2; exit 1; }

echo "verify: OK"
