//! The repository's serving benchmark.
//!
//! Runs one named workload against the public serving API with default
//! options, checks every response bit for bit against the fixed-kernel
//! oracle, and prints its metrics: one human-readable line each, then, as
//! the last line, one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`.  `--trace 0` reports the end-to-end metrics; `--trace 1`
//! reports the per-layer breakdown from a traced run and writes that run's
//! spans under the build directory.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fullgraph_csr --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each exists): `fullgraph_csr`,
//! `egonet_open`, `fullgraph_dense_pruned`.

mod layers;
mod serve;
mod spans;
mod stats;
mod workload;

use dynasparse::{CounterId, Registry};
use dynasparse_serve::ServeReport;
use serve::{Outcome, Served, Stop, Window};
use spans::SpanBuf;
use stats::{mean, percentile, ratio, Metric};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{Egonet, FullGraph, Load, Oracle, Workload, MAX_BATCH, WARMUP, WORKERS};

/// Fresh processes whose set-up times `setup_s` takes the median of (this
/// process counts as one).
const SETUP_RUNS: usize = 5;
/// Length of the windows `throughput_rps` and `latency_p50_ms` are taken
/// over before their median across the run is reported.
const WINDOW_S: f64 = 2.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: set up once, print the set-up time and exit.
    probe_setup: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace, mut probe_setup) = (None, None, false, false);
        let mut argv = std::env::args().skip(1);
        while let Some(flag) = argv.next() {
            if flag == "--probe-setup" {
                probe_setup = true;
                continue;
            }
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or_else(|| {
                        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!("unknown workload {value}; expected one of {names:?}")
                    })?)
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad(()))?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad(()))?),
                "--trace" => trace = value.parse::<u8>().map_err(|_| bad(()))? != 0,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.unwrap_or(30.0);
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds must be in (0, 600], got {seconds}"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
            probe_setup,
        })
    }

    /// How long the runtime serves: the whole run, or its first half when
    /// traced (the layer replay takes the second half).
    fn serve_window(&self) -> Duration {
        let share = if self.trace { 0.5 } else { 1.0 };
        Duration::from_secs_f64(self.seconds * share)
    }
}

fn main() -> ExitCode {
    spans::epoch();
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = Args::parse()?;
    // Each DYNASPARSE_* variable switches the program onto a non-default
    // path; the benchmark measures the defaults only.
    if let Some(var) = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .find(|k| k.starts_with("DYNASPARSE_"))
    {
        return Err(format!(
            "{var} is set and would change the program under test; unset it"
        ));
    }
    match args.workload {
        Workload::EgonetOpen => run_egonet(&args),
        _ => run_full(&args),
    }
}

fn run_full(args: &Args) -> Result<(), String> {
    let Load::Closed { clients } = args.workload.load() else {
        unreachable!("{} is a closed loop", args.workload.name())
    };
    let mut inputs = FullGraph::generate(args.workload, args.seed);
    if args.probe_setup {
        let served = serve::setup_full(&inputs, clients, None)?;
        served.runtime.shutdown();
        println!("setup_s {}", served.setup_s);
        return Ok(());
    }
    inputs.compute_oracles();
    print_header(args, &format!("clients={clients}"), &inputs.describe());
    let mut spans = SpanBuf::default();
    let served = serve::setup_full(&inputs, clients, args.trace.then_some(&mut spans))?;
    let until = Stop::At(Instant::now() + args.serve_window());
    let window = serve::closed_loop(&served.runtime, &inputs, WARMUP, clients, until, args.trace);
    let plan = Arc::clone(served.runtime.plan());
    report(args, served, window, spans, &inputs.oracles, |budget| {
        layers::replay_full(&plan, &inputs, budget)
    })
}

fn run_egonet(args: &Args) -> Result<(), String> {
    let Load::Open { rate_rps } = args.workload.load() else {
        unreachable!("egonet_open is an open loop")
    };
    let requests = if args.probe_setup {
        0
    } else {
        (rate_rps * args.serve_window().as_secs_f64())
            .round()
            .max(1.0) as usize
    };
    let mut inputs = Egonet::generate(args.seed, rate_rps, requests);
    if args.probe_setup {
        let served = serve::setup_egonet(&inputs, None)?;
        served.runtime.shutdown();
        println!("setup_s {}", served.setup_s);
        return Ok(());
    }
    inputs.compute_oracles();
    print_header(args, &format!("rate_rps={rate_rps}"), &inputs.describe());
    let mut spans = SpanBuf::default();
    let served = serve::setup_egonet(&inputs, args.trace.then_some(&mut spans))?;
    let window = serve::open_loop(&served.runtime, &inputs, requests, args.trace);
    let template = Arc::clone(served.runtime.template().expect("template runtime"));
    report(args, served, window, spans, &inputs.oracles, |budget| {
        layers::replay_egonet(&template, &inputs, budget)
    })
}

/// Shuts the runtime down and prints the run's metrics: the end-to-end set,
/// or, for a traced run, the per-layer set after replaying the stream for
/// the second half of the run.
fn report(
    args: &Args,
    served: Served,
    mut window: Window,
    mut spans: SpanBuf,
    oracles: &[Oracle],
    replay: impl FnOnce(Duration) -> Result<layers::Replay, String>,
) -> Result<(), String> {
    let Served {
        runtime,
        registry,
        setup_s,
    } = served;
    let serve_report = runtime.shutdown();
    if !args.trace {
        let setup = probe_setups(args, setup_s)?;
        return emit_end_to_end(args, &window, &registry, oracles, &setup);
    }
    let replay = replay(args.serve_window())?;
    spans.extend(std::mem::take(&mut window.spans));
    spans.extend(replay.spans);
    let layers = Layers {
        window: &window,
        report: &serve_report,
        registry: &registry,
        spans: &spans,
        replay_requests: replay.requests,
        replay_mismatches: replay.mismatches,
        overhead_pct: 100.0 * ratio(replay.traced_s - replay.untraced_s, replay.untraced_s),
        oracles,
    };
    emit_per_layer(args, &layers)
}

/// Set-up times of this process and of `SETUP_RUNS - 1` fresh ones, each
/// paying the once-per-process host calibration.
fn probe_setups(args: &Args, own: f64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut times = vec![own];
    for _ in 1..SETUP_RUNS {
        let out = Command::new(&exe)
            .args(["--workload", args.workload.name(), "--seed"])
            .arg(args.seed.to_string())
            .arg("--probe-setup")
            .output()
            .map_err(|e| format!("set-up probe: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let value = stdout
            .lines()
            .last()
            .and_then(|l| l.strip_prefix("setup_s "))
            .and_then(|v| v.parse::<f64>().ok());
        match (out.status.success(), value) {
            (true, Some(v)) => times.push(v),
            _ => {
                return Err(format!(
                    "set-up probe failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                ))
            }
        }
    }
    Ok(times)
}

fn print_header(args: &Args, load: &str, inputs: &str) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "run workload={} seed={} seconds={} trace={} git={} nproc={} workers={} max_batch={} {} latency_limit_ms={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_revision(),
        nproc,
        WORKERS,
        MAX_BATCH,
        load,
        args.workload.latency_limit_ms()
    );
    println!("inputs {inputs}");
}

/// The checked-out commit, read from `.git` when the tree is a repository.
fn git_revision() -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let git = Path::new(".git");
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `VmHWM` (peak resident set) of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Counts and rates of one window.
struct Tally {
    attempted: usize,
    correct: usize,
    mismatches: usize,
    rejected: usize,
    /// Latencies of the requests that got a response.
    latencies: Vec<f64>,
}

impl Tally {
    fn of(window: &Window) -> Tally {
        let count = |o: Outcome| window.samples.iter().filter(|s| s.outcome == o).count();
        Tally {
            attempted: window.samples.len(),
            correct: count(Outcome::Correct),
            mismatches: count(Outcome::Mismatch),
            rejected: count(Outcome::Rejected),
            latencies: window
                .samples
                .iter()
                .filter(|s| matches!(s.outcome, Outcome::Correct | Outcome::Mismatch))
                .map(|s| s.latency_ms)
                .collect(),
        }
    }

    fn failed(&self) -> usize {
        self.attempted - self.correct
    }
}

/// Throughput and median latency of each whole `WINDOW_S` window of a run,
/// by response time.  The reported figures are their medians across the
/// windows: a stretch of the run on a busy shared host moves those less
/// than it moves a figure pooled over the whole run.
struct Windows {
    throughput_rps: Vec<f64>,
    latency_p50_ms: Vec<f64>,
    /// Correct responses and responses with a latency inside the windows.
    correct: usize,
    responses: usize,
}

impl Windows {
    fn of(window: &Window) -> Windows {
        // A run shorter than one window is one window of its own length.
        let (count, width) = match (window.wall_s / WINDOW_S).floor() as usize {
            0 => (1, window.wall_s.max(f64::MIN_POSITIVE)),
            n => (n, WINDOW_S),
        };
        let mut correct = vec![0usize; count];
        let mut latencies = vec![Vec::new(); count];
        for s in &window.samples {
            let w = (s.done_s / width).floor() as usize;
            if w >= count {
                continue;
            }
            if s.outcome == Outcome::Correct {
                correct[w] += 1;
            }
            if matches!(s.outcome, Outcome::Correct | Outcome::Mismatch) {
                latencies[w].push(s.latency_ms);
            }
        }
        Windows {
            throughput_rps: correct.iter().map(|&c| c as f64 / width).collect(),
            latency_p50_ms: latencies.iter().map(|l| percentile(l, 0.5)).collect(),
            correct: correct.iter().sum(),
            responses: latencies.iter().map(Vec::len).sum(),
        }
    }
}

fn print_registry(registry: &Registry) {
    let c = |id| registry.counter(id);
    println!(
        "registry recalibrations={} dispatch_gemm={} dispatch_spdmm={} dispatch_spgemm={} dispatch_skip={} dispatch_fallback={} pricing_hit={} pricing_miss={} pricing_evict={} rebind_reuse={} rebind_rebuild={}",
        c(CounterId::Recalibrations),
        c(CounterId::DispatchGemm),
        c(CounterId::DispatchSpdmm),
        c(CounterId::DispatchSpmm),
        c(CounterId::DispatchSkip),
        c(CounterId::DispatchFallbacks),
        c(CounterId::PricingHit),
        c(CounterId::PricingMiss),
        c(CounterId::PricingEvict),
        c(CounterId::RebindReuse),
        c(CounterId::RebindRebuild),
    );
}

fn emit_end_to_end(
    args: &Args,
    window: &Window,
    registry: &Registry,
    oracles: &[Oracle],
    setup: &[f64],
) -> Result<(), String> {
    let m = Metric::new;
    let tally = Tally::of(window);
    let windows = Windows::of(window);
    let limit = args.workload.latency_limit_ms();
    let within = window
        .samples
        .iter()
        .filter(|s| s.outcome == Outcome::Correct && s.latency_ms <= limit)
        .count();
    let modeled: Vec<f64> = window
        .samples
        .iter()
        .filter(|s| s.outcome == Outcome::Correct)
        .map(|s| s.modeled_ms)
        .collect();
    let n = tally.attempted;
    let metrics = [
        m("setup_s", percentile(setup, 0.5), "s", setup.len()),
        m(
            "throughput_rps",
            percentile(&windows.throughput_rps, 0.5),
            "req/s",
            windows.correct,
        ),
        m(
            "latency_p50_ms",
            percentile(&windows.latency_p50_ms, 0.5),
            "ms",
            windows.responses,
        ),
        m(
            "slo_attainment",
            ratio(within as f64, n as f64),
            "fraction",
            n,
        ),
        m("modeled_latency_ms", mean(&modeled), "ms", modeled.len()),
        m("peak_rss_mb", peak_rss_mb(), "MB", 1),
    ];
    // Printed with the others but left out of the result object: the tail
    // follows the host's CPU steal more than the program (see CHANGES.md),
    // and the error rate reads 0 on a correct build.
    let printed_only = [
        m(
            "latency_p99_ms",
            percentile(&tally.latencies, 0.99),
            "ms",
            tally.latencies.len(),
        ),
        m(
            "error_rate",
            ratio(tally.failed() as f64, n as f64),
            "fraction",
            n,
        ),
    ];
    print_registry(registry);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host steal_pct={:.2} cpu_ms_per_req={:.4} setup_runs_s={:?}",
        100.0 * ratio(window.steal_s, nproc as f64 * window.wall_s),
        1e3 * ratio(window.cpu_s, tally.correct as f64),
        setup.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>()
    );
    let quartiles =
        |v: &[f64]| [0.0, 0.25, 0.5, 0.75, 1.0].map(|q| format!("{:.4}", percentile(v, q)));
    println!(
        "windows count={} width_s={WINDOW_S} throughput_rps_quartiles={:?} latency_p50_ms_quartiles={:?} pooled_throughput_rps={:.4} pooled_latency_p50_ms={:.4}",
        windows.throughput_rps.len(),
        quartiles(&windows.throughput_rps),
        quartiles(&windows.latency_p50_ms),
        ratio(tally.correct as f64, window.wall_s),
        percentile(&tally.latencies, 0.5),
    );
    stats::print_metrics(&metrics);
    stats::print_metrics(&printed_only);
    let served: Vec<usize> = window.samples.iter().map(|s| s.input).collect();
    println!(
        "checked attempted={} correct={} oracle_mismatches={} rejected={} other_failures={} wall_s={:.3} computed_macs_per_req={:.0}",
        n,
        tally.correct,
        tally.mismatches,
        tally.rejected,
        tally.failed() - tally.mismatches - tally.rejected,
        window.wall_s,
        mean(&served.iter().map(|&i| oracles[i].macs).collect::<Vec<_>>()),
    );
    println!(
        "{}",
        stats::result_json(tally.mismatches == 0, n, tally.failed(), &metrics)
    );
    Ok(())
}

/// Everything the per-layer metrics are computed from.
struct Layers<'a> {
    window: &'a Window,
    report: &'a ServeReport,
    registry: &'a Registry,
    spans: &'a SpanBuf,
    replay_requests: usize,
    replay_mismatches: usize,
    overhead_pct: f64,
    oracles: &'a [Oracle],
}

fn emit_per_layer(args: &Args, l: &Layers<'_>) -> Result<(), String> {
    let m = Metric::new;
    let tally = Tally::of(l.window);
    let c = |id| l.registry.counter(id) as f64;
    let served = c(CounterId::ServeRequests);
    let per_req = |id| ratio(c(id), served);
    let span_mean = |name| mean(&l.spans.durations_ms(name));
    let span_n = |name| l.spans.durations_ms(name).len();
    let pricing_lookups = c(CounterId::PricingHit) + c(CounterId::PricingMiss);
    let rebinds = c(CounterId::RebindReuse) + c(CounterId::RebindRebuild);
    let work = |f: fn(&Oracle) -> f64| {
        let v: Vec<f64> = l
            .window
            .samples
            .iter()
            .filter(|s| s.outcome == Outcome::Correct)
            .map(|s| f(&l.oracles[s.input]))
            .collect();
        mean(&v)
    };
    let admit_us: Vec<f64> = l
        .spans
        .durations_ms("serve.admit")
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    let residual = l.spans.self_times_ms("bench.replay");
    let s = served as usize;
    let r = l.replay_requests;
    let metrics = [
        m(
            "serve.queue_wait_p50_ms",
            l.report.queue_wait.p50_ms,
            "ms",
            l.report.queue_wait.count,
        ),
        m(
            "serve.queue_wait_p99_ms",
            l.report.queue_wait.p99_ms,
            "ms",
            l.report.queue_wait.count,
        ),
        m(
            "serve.service_p50_ms",
            l.report.service.p50_ms,
            "ms",
            l.report.service.count,
        ),
        m(
            "serve.admit_us_p50",
            percentile(&admit_us, 0.5),
            "us",
            admit_us.len(),
        ),
        m(
            "serve.batch_size_mean",
            l.report.mean_batch_size(),
            "req",
            l.report.batches as usize,
        ),
        m(
            "serve.start_s",
            span_mean("serve.start") / 1e3,
            "s",
            span_n("serve.start"),
        ),
        m(
            "serve.rejected",
            tally.rejected as f64,
            "count",
            tally.attempted,
        ),
        m(
            "serve.worker_panics",
            l.report.worker_panics as f64,
            "count",
            tally.attempted,
        ),
        m(
            "core.plan_s",
            span_mean("core.plan") / 1e3,
            "s",
            span_n("core.plan"),
        ),
        m(
            "core.infer_ms",
            span_mean("core.infer"),
            "ms",
            span_n("core.infer"),
        ),
        m(
            "core.instantiate_ms",
            span_mean("core.instantiate"),
            "ms",
            span_n("core.instantiate"),
        ),
        m(
            "core.rebind_ms",
            span_mean("core.rebind"),
            "ms",
            span_n("core.rebind"),
        ),
        m(
            "core.rebind_reuse_rate",
            ratio(c(CounterId::RebindReuse), rebinds),
            "fraction",
            rebinds as usize,
        ),
        m(
            "core.recalibrations",
            c(CounterId::Recalibrations),
            "count",
            s,
        ),
        m(
            "runtime.pricing_ms",
            span_mean("core.infer") - span_mean("model.forward"),
            "ms",
            r,
        ),
        m(
            "runtime.pricing_hit_rate",
            ratio(c(CounterId::PricingHit), pricing_lookups),
            "fraction",
            pricing_lookups as usize,
        ),
        m(
            "runtime.pricing_evictions",
            c(CounterId::PricingEvict),
            "count",
            s,
        ),
        m(
            "model.forward_ms",
            span_mean("model.forward"),
            "ms",
            span_n("model.forward"),
        ),
        m(
            "matrix.profile_ms",
            span_mean("matrix.profile"),
            "ms",
            span_n("matrix.profile"),
        ),
        m(
            "matrix.to_csr_ms",
            span_mean("matrix.to_csr"),
            "ms",
            span_n("matrix.to_csr"),
        ),
        m(
            "matrix.dispatch_gemm_per_req",
            per_req(CounterId::DispatchGemm),
            "count",
            s,
        ),
        m(
            "matrix.dispatch_spdmm_per_req",
            per_req(CounterId::DispatchSpdmm),
            "count",
            s,
        ),
        m(
            "matrix.dispatch_spgemm_per_req",
            per_req(CounterId::DispatchSpmm),
            "count",
            s,
        ),
        m(
            "matrix.dispatch_skip_per_req",
            per_req(CounterId::DispatchSkip),
            "count",
            s,
        ),
        m(
            "matrix.dispatch_fallback_per_req",
            per_req(CounterId::DispatchFallbacks),
            "count",
            s,
        ),
        m(
            "matrix.macs_per_req",
            work(|o| o.macs),
            "count",
            tally.correct,
        ),
        m(
            "matrix.bytes_per_req",
            work(|o| o.bytes),
            "B",
            tally.correct,
        ),
        m(
            "bench.generator_late_p99_ms",
            percentile(&l.window.late_ms, 0.99),
            "ms",
            l.window.late_ms.len(),
        ),
        m("bench.trace_overhead_pct", l.overhead_pct, "%", r),
        m("bench.residual_ms", mean(&residual), "ms", residual.len()),
    ];
    print_registry(l.registry);
    stats::print_metrics(&metrics);
    let path = spans_path(args);
    l.spans
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "trace spans={} file={} replayed={} replay_mismatches={} served_attempted={} served_mismatches={}",
        l.spans.spans.len(),
        path.display(),
        r,
        l.replay_mismatches,
        tally.attempted,
        tally.mismatches
    );
    let correct = tally.mismatches == 0 && l.replay_mismatches == 0;
    println!(
        "{}",
        stats::result_json(correct, tally.attempted, tally.failed(), &metrics)
    );
    Ok(())
}

/// Where the traced run's spans go: the build directory (`CARGO_TARGET_DIR`
/// when set, else this package's `target/`).
fn spans_path(args: &Args) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"));
    target
        .join("perfbench-spans")
        .join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed))
}
