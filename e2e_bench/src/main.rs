//! `e2e_bench` — the repository's end-to-end benchmark.
//!
//! ```text
//! e2e_bench --server PATH --root DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload is served by an `eqsql-serve --listen` child process over
//! loopback TCP and driven from this process by two threads on two
//! connections that are opened and pinged before any clock starts.
//!
//! * `backchase_hot` — open loop at a fixed ladder of arrival rates: a
//!   copy of the committed `equiv_batch.req` stream (C&B's equivalence tests) over a
//!   memory cache warmed during set-up, persistence off.
//! * `appendix_h_fresh` — closed loop: a seeded stream of distinct 3-atom
//!   query pairs over the Appendix-H m=4 family, fresh cache directory.
//! * `backchase_disk` — closed loop: the `equiv_batch.req` stream after a
//!   restart over a cache directory filled by an untimed cold pass, behind
//!   a 16-entry memory tier, so what misses memory is read from disk.
//!
//! `--trace 0` prints the end-to-end metrics (tracing off). `--trace 1`
//! runs the traced ladder instead — chase, matcher, counterexample search,
//! cache, `decide`, `decide_all` and socket rungs over one request stream —
//! and prints the per-layer metrics. Every run checks every verdict (see
//! `check`). The last stdout line is the JSON result; progress and a
//! readable table go to stderr. `run.py` builds the server and this harness
//! and supplies `--server` and `--root`.

mod check;
mod drive;
mod ladder;
mod server;
mod stats;
mod stream;

use check::Expected;
use drive::{drive, Pace, Run, Sample};
use eqsql_net::Client;
use ladder::{CacheState, Ladder, DISK_CAPACITY, SNAPSHOT_EVERY};
use server::{connect, ServerExit, ServerProc, CONNECTIONS};
use stats::{Metrics, Samples};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use stream::{Inputs, Rng};

/// Server set-ups per run; `setup_s` is their median.
const SETUPS: usize = 11;
/// `backchase_hot`'s arrival-rate ladder: (requests/s over both
/// connections, share of the run held at that rate). Rates above 3000/s
/// approach what two one-in-flight connections can offer at all.
const HOT_RUNGS: [(f64, f64); 3] = [(1000.0, 0.2), (2000.0, 0.3), (3000.0, 0.5)];
/// The rung whose latencies are `backchase_hot`'s `latency_*` metrics: the
/// busiest, where the tail depends least on how fast idle threads wake.
const HOT_LATENCY_RUNG: usize = 2;
/// The ladder is walked this many times per run, a slice of each rung per
/// cycle, so a burst of load from elsewhere on the host lands on every
/// rung a little instead of on one rung entirely.
const HOT_CYCLES: usize = 10;
/// The latency limit `slo_qps` holds the p99 to, µs.
const SLO_P99_US: f64 = 2000.0;
/// A rung keeps up when it achieves this share of its target rate.
const SLO_ACHIEVED: f64 = 0.98;
/// Generated `appendix_h_fresh` pairs: more than a run can send.
const APPENDIX_H_PAIRS: usize = 20_000;
/// Requests in the traced ladder stream of `appendix_h_fresh`.
const APPENDIX_H_LADDER: usize = 2_500;
/// Passes over the 124-line fixture in the traced ladder stream.
const FIXTURE_LADDER_PASSES: usize = 10;
/// Passes over the fixture available to a timed run: enough for a minute
/// at 10k requests/s.
const FIXTURE_PASSES: usize = 5_000;

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    BackchaseHot,
    AppendixHFresh,
    BackchaseDisk,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "backchase_hot" => Some(Workload::BackchaseHot),
            "appendix_h_fresh" => Some(Workload::AppendixHFresh),
            "backchase_disk" => Some(Workload::BackchaseDisk),
            _ => None,
        }
    }
}

struct Args {
    server: PathBuf,
    root: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut server, mut root, mut workload, mut seed, mut seconds, mut trace) =
        (None, None, None, 1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} wants a value"))?;
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(value)),
            "--root" => root = Some(PathBuf::from(value)),
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| "--seed wants an integer")?,
            "--seconds" => seconds = value.parse().map_err(|_| "--seconds wants a number")?,
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        root: root.ok_or("--root is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1.0),
        trace,
    })
}

/// The run's scratch directory, removed on every exit path (with its
/// parent, once no other run is using it).
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// A started server with its pre-opened connections.
struct Live {
    server: ServerProc,
    clients: Vec<Client>,
    connect_us: Vec<f64>,
}

impl Live {
    fn start(bin: &Path, file: &Path, extra: &[String]) -> Result<Live, String> {
        let server = ServerProc::spawn(bin, file, extra).map_err(|e| format!("spawn: {e}"))?;
        let (mut clients, mut connect_us) = (Vec::new(), Vec::new());
        for _ in 0..CONNECTIONS {
            let (c, t) = connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
            clients.push(c);
            connect_us.push(t);
        }
        Ok(Live { server, clients, connect_us })
    }

    fn stop(mut self) -> Result<ServerExit, String> {
        self.server.stop(&mut self.clients[0]).map_err(|e| format!("server stop: {e}"))
    }
}

struct Bench {
    args: Args,
    work: PathBuf,
    inputs: Inputs,
    file_path: PathBuf,
}

impl Bench {
    fn extra(&self, dir: Option<&Path>) -> Vec<String> {
        let mut extra = Vec::new();
        if let Some(dir) = dir {
            extra.push("--cache-dir".to_string());
            extra.push(dir.display().to_string());
            extra.push("--snapshot-every".to_string());
            extra.push(SNAPSHOT_EVERY.to_string());
        }
        if self.args.workload == Workload::BackchaseDisk {
            extra.push("--cache-capacity".to_string());
            extra.push(DISK_CAPACITY.to_string());
        }
        extra
    }

    fn start(&self, dir: Option<&Path>) -> Result<Live, String> {
        Live::start(&self.args.server, &self.file_path, &self.extra(dir))
    }

    /// Each distinct request once, closed loop: the hot warm-up pass and
    /// the disk workload's cold pass.
    fn one_pass(&self, live: &mut Live) -> Result<Run, String> {
        let all: Vec<usize> = (0..self.inputs.len()).collect();
        let run =
            drive(&mut live.clients, &self.inputs.lines, &all, Pace::Closed { for_time: None });
        match run.samples.iter().find(|s| !s.ok()) {
            Some(s) => Err(format!("pass over the stream failed: {:?}", s.verdict)),
            None => Ok(run),
        }
    }

    fn disk_dir(&self) -> PathBuf {
        self.work.join("disk-cache")
    }

    /// Starts the server `SETUPS` times the way this workload starts it and
    /// returns the last, still running, with the median set-up time.
    fn setups(&self) -> Result<(Live, f64), String> {
        if self.args.workload == Workload::BackchaseDisk {
            let mut cold = self.start(Some(&self.disk_dir()))?;
            self.one_pass(&mut cold)?;
            cold.stop()?;
        }
        let mut times = Samples::default();
        for k in 0..SETUPS {
            let t = Instant::now();
            let live = match self.args.workload {
                Workload::BackchaseHot => {
                    let mut live = self.start(None)?;
                    self.one_pass(&mut live)?;
                    live
                }
                Workload::AppendixHFresh => {
                    self.start(Some(&self.work.join(format!("cache-{k}"))))?
                }
                Workload::BackchaseDisk => self.start(Some(&self.disk_dir()))?,
            };
            times.push(t.elapsed().as_secs_f64());
            if k + 1 == SETUPS {
                return Ok((live, times.p50()));
            }
            live.stop()?;
        }
        unreachable!("SETUPS > 0")
    }

    /// The timed replay order.
    fn order(&self, passes: usize) -> Vec<usize> {
        let mut rng = Rng::new(self.args.seed.wrapping_add(1));
        match self.args.workload {
            Workload::AppendixHFresh => (0..self.inputs.len()).collect(),
            _ => stream::passes(self.inputs.len(), passes, &mut rng),
        }
    }

    /// End-to-end run, tracing off.
    fn end_to_end(&self) -> Result<(Metrics, Vec<Sample>), String> {
        let (mut live, setup_s) = self.setups()?;
        let order = self.order(FIXTURE_PASSES);
        let mut m = Metrics::default();
        m.put("setup_s", setup_s, "s");
        let samples = if self.args.workload == Workload::BackchaseHot {
            let mut rungs: Vec<Run> =
                HOT_RUNGS.iter().map(|_| Run { samples: Vec::new(), wall_s: 0.0 }).collect();
            let mut offset = 0;
            for _ in 0..HOT_CYCLES {
                for (&(rate, share), rung) in HOT_RUNGS.iter().zip(rungs.iter_mut()) {
                    let slice = share * self.args.seconds / HOT_CYCLES as f64;
                    let count = (rate * slice).round() as usize;
                    let segment = &order[offset..offset + count];
                    offset += count;
                    let run =
                        drive(&mut live.clients, &self.inputs.lines, segment, Pace::Open { rate });
                    rung.samples.extend(run.samples);
                    rung.wall_s += run.wall_s;
                }
            }
            let (mut all, mut wall, mut slo) = (Vec::new(), 0.0, None);
            for (r, (&(rate, _), run)) in HOT_RUNGS.iter().zip(rungs).enumerate() {
                let lat = latencies(&run.samples);
                let achieved = run.samples.len() as f64 / run.wall_s;
                let p99 = lat.windowed_p99();
                let late = Samples::from_iter(run.samples.iter().map(|s| s.lateness_us));
                eprintln!(
                    "  rate {rate:>6}/s: achieved {achieved:.1}/s p50 {:.1}us p99 {p99:.1}us \
                     (plain {:.1}us; {} samples; lateness p99 {:.1}us)",
                    lat.p50(),
                    lat.p99(),
                    lat.len(),
                    late.p99()
                );
                let kept_up = achieved >= SLO_ACHIEVED * rate;
                if p99 <= SLO_P99_US && kept_up && run.ok_count() == run.samples.len() {
                    slo = Some(achieved);
                } else if r == 0 {
                    // Even the lowest rate misses the limit: report it
                    // scaled by limit/p99, so the metric sinks with the tail
                    // instead of dropping to 0.
                    slo = Some(achieved * (SLO_P99_US / p99).min(1.0));
                }
                if r == HOT_LATENCY_RUNG {
                    m.put("latency_p50_us", lat.p50(), "us");
                    m.put("latency_p99_us", p99, "us");
                }
                wall += run.wall_s;
                all.extend(run.samples);
            }
            let ok = all.iter().filter(|s| s.ok()).count();
            m.put("verdicts_per_s", ok as f64 / wall, "1/s");
            m.put("slo_qps", slo.unwrap_or(0.0), "1/s");
            all
        } else {
            let pace = Pace::Closed { for_time: Some(Duration::from_secs_f64(self.args.seconds)) };
            let run = drive(&mut live.clients, &self.inputs.lines, &order, pace);
            if run.samples.len() >= order.len() {
                return Err("the run used up its request stream; generate more".into());
            }
            let lat = latencies(&run.samples);
            eprintln!("  {} samples, plain p99 {:.1}us", lat.len(), lat.p99());
            let rate = run.ok_count() as f64 / run.wall_s;
            m.put("verdicts_per_s", rate, "1/s");
            m.put("latency_p50_us", lat.p50(), "us");
            m.put("latency_p99_us", lat.windowed_p99(), "us");
            // Closed loops have no arrival-rate ladder: the rate the two
            // clients sustain stands in.
            m.put("slo_qps", rate, "1/s");
            run.samples
        };
        m.put("peak_rss_mb", live.server.peak_rss_mib().map_err(|e| format!("rss: {e}"))?, "MiB");
        live.stop()?;
        Ok((m, samples))
    }

    /// The traced ladder.
    fn traced(&self) -> Result<(Metrics, Vec<Sample>, Expected), String> {
        let mut m = Metrics::default();
        let order: Vec<usize> = match self.args.workload {
            Workload::AppendixHFresh => (0..APPENDIX_H_LADDER).collect(),
            _ => self.order(FIXTURE_LADDER_PASSES),
        };
        // Socket rung: the stream once, closed loop, after the workload's
        // own set-up.
        let state;
        let mut live = match self.args.workload {
            Workload::BackchaseHot => {
                state = CacheState::Warm;
                let mut live = self.start(None)?;
                let warm = self.one_pass(&mut live)?;
                put_first_verdict(&mut m, &warm);
                live
            }
            Workload::AppendixHFresh => {
                state = CacheState::Fresh(self.work.join("ladder"));
                self.start(Some(&self.work.join("socket-cache")))?
            }
            Workload::BackchaseDisk => {
                state = CacheState::Disk(self.disk_dir());
                let mut cold = self.start(Some(&self.disk_dir()))?;
                self.one_pass(&mut cold)?;
                cold.stop()?;
                self.start(Some(&self.disk_dir()))?
            }
        };
        m.put("net.connect_us", Samples::from_iter(live.connect_us.iter().copied()).p50(), "us");
        let t = Instant::now();
        let socket =
            drive(&mut live.clients, &self.inputs.lines, &order, Pace::Closed { for_time: None });
        eprintln!("  socket rung {:.1}s", t.elapsed().as_secs_f64());
        if self.args.workload != Workload::BackchaseHot {
            put_first_verdict(&mut m, &socket);
        }
        let (mut lateness, mut achieved) = (0.0, 1.0);
        if self.args.workload == Workload::BackchaseHot {
            let rate = HOT_RUNGS[HOT_LATENCY_RUNG].0;
            let count = (rate * self.args.seconds / 2.0).round() as usize;
            let open_order = self.order(count / self.inputs.len() + 1);
            let open = drive(
                &mut live.clients,
                &self.inputs.lines,
                &open_order[..count],
                Pace::Open { rate },
            );
            let mut late = Samples::default();
            open.samples.iter().for_each(|s| late.push(s.lateness_us));
            lateness = late.p99();
            achieved = open.samples.len() as f64 / open.wall_s / rate;
        }
        m.put("loadgen.lateness_us_p99", lateness, "us");
        m.put("loadgen.achieved_frac", achieved, "ratio");
        let exit = live.stop()?;
        m.put("net.served", exit.served as f64, "count");
        m.put("net.rejected", exit.rejected as f64, "count");
        // The in-process rungs over the same stream.
        let out = Ladder::new(&self.inputs.file, &order, state).run(&mut m);
        let wire = latencies(&socket.samples);
        m.put("net.wire_us_p50", wire.p50() - out.pool_service_us.p50(), "us");
        m.put("net.wire_us_p99", wire.p99() - out.pool_service_us.p99(), "us");
        Ok((m, socket.samples, out.expected))
    }
}

fn latencies(samples: &[Sample]) -> Samples {
    Samples::from_iter(samples.iter().map(|s| s.latency_us))
}

/// Latency of the first verdict on each freshly opened connection.
fn put_first_verdict(m: &mut Metrics, run: &Run) {
    let mut first = Samples::default();
    for conn in 0..CONNECTIONS {
        if let Some(s) = run.samples.iter().find(|s| s.conn == conn) {
            first.push(s.latency_us);
        }
    }
    m.put("net.first_verdict_us", first.p50(), "us");
}

fn load_inputs(args: &Args, work: &Path) -> Result<(Inputs, PathBuf), String> {
    let text = match args.workload {
        Workload::AppendixHFresh => stream::appendix_h_file(args.seed, APPENDIX_H_PAIRS),
        _ => {
            let fixture = args.root.join("e2e_bench/data/equiv_batch.req");
            std::fs::read_to_string(&fixture)
                .map_err(|e| format!("cannot read {}: {e}", fixture.display()))?
        }
    };
    let inputs = Inputs::parse(&text)?;
    // The server starts from the file's header (Σ, set-valued flags,
    // budgets) and its first request line, which `--listen` parses and
    // ignores like every other; the request lines travel over the wire.
    // Handing it all of them would only put their parse into `setup_s`.
    let first = text.lines().position(|l| l.trim_start().starts_with("pair:")).unwrap_or(0);
    let header: String = text.lines().take(first + 1).map(|l| format!("{l}\n")).collect();
    if Inputs::parse(&header)?.file.schema != inputs.file.schema {
        return Err("the request lines use relations the header does not declare".into());
    }
    let path = work.join("server.req");
    std::fs::write(&path, &header).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok((inputs, path))
}

fn run(args: Args) -> Result<(Metrics, u64, u64), String> {
    let work = args.root.join(".bench_work").join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let _cleanup = WorkDir(work.clone());
    let (inputs, file_path) = load_inputs(&args, &work)?;
    let bench = Bench { args, work, inputs, file_path };
    let trace = bench.args.trace;
    let (mut m, samples, expected) = if trace {
        bench.traced()?
    } else {
        let (m, samples) = bench.end_to_end()?;
        // Checks, outside the timed region: every distinct request sent is
        // decided in process, its evidence replayed.
        let mut which: Vec<usize> = samples.iter().map(|s| s.request).collect();
        which.sort_unstable();
        which.dedup();
        let t = Instant::now();
        let expected = Expected::decide(&bench.inputs.file, &which);
        eprintln!("  checks {:.1}s", t.elapsed().as_secs_f64());
        (m, samples, expected)
    };
    let (failed, reasons) = expected.failures(&samples);
    for why in reasons.iter().chain(expected.bad().iter().take(5)) {
        eprintln!("  check failed: {why}");
    }
    let attempted = samples.len() as u64;
    if trace {
        m.put("failed_frac", failed as f64 / attempted.max(1) as f64, "ratio");
    }
    Ok((m, attempted, failed))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok((m, attempted, failed)) => {
            eprint!("{}", m.table());
            println!("{}", m.result_json(failed == 0 && attempted > 0, attempted.max(1), failed));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            ExitCode::FAILURE
        }
    }
}
