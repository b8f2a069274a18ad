//! Driving the serving runtime: set-up, the closed loop and the open loop.
//!
//! Everything here goes through the public serving API with default options;
//! only the worker count, the batch cap and the telemetry registry are set.

use crate::spans::{new_id, SpanBuf, NO_REQUEST};
use crate::workload::{Egonet, FullGraph, Oracle, MAX_BATCH, WARMUP, WORKERS};
use dynasparse::{
    EngineOptions, InferenceReport, MappingStrategy, ModelTemplate, Planner, Registry,
    TelemetryLevel,
};
use dynasparse_serve::{ServeConfig, ServeError, ServeRuntime, Ticket};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// A started runtime and what its set-up cost.
pub struct Served {
    pub runtime: ServeRuntime,
    /// The registry every worker publishes into.
    pub registry: Arc<Registry>,
    /// First call into the program until the warm-up has been served.
    pub setup_s: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served, and bit-identical to the oracle.
    Correct,
    /// Served, but different from the oracle.
    Mismatch,
    /// Refused by admission control (queue full, shed, deadline).
    Rejected,
    /// Any other error.
    Failed,
}

/// One attempted request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index into the workload's oracles.
    pub input: usize,
    /// Client-side latency (closed loop: from submit; open loop: from due).
    pub latency_ms: f64,
    pub outcome: Outcome,
    /// Dynamic-mapping modeled accelerator latency of the served report.
    pub modeled_ms: f64,
    /// When the response arrived, in seconds from the window's start.
    pub done_s: f64,
}

/// What one measured window produced.
#[derive(Default)]
pub struct Window {
    pub samples: Vec<Sample>,
    pub wall_s: f64,
    /// CPU seconds the host stole from this machine's CPUs (all of them)
    /// during the window: the main reason two runs of one commit differ.
    pub steal_s: f64,
    /// CPU seconds this process used during the window.
    pub cpu_s: f64,
    /// How late the load generator submitted each request: after its due
    /// time (open loop), or after the client's previous request returned
    /// (closed loop).
    pub late_ms: Vec<f64>,
    pub spans: SpanBuf,
}

/// When a closed loop stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    Count(usize),
    At(Instant),
}

fn config(registry: &Arc<Registry>) -> ServeConfig {
    ServeConfig::default()
        .workers(WORKERS)
        .max_batch(MAX_BATCH)
        .telemetry(Arc::clone(registry))
}

/// `(stolen, own)` CPU seconds so far: the machine-wide steal counter of
/// `/proc/stat` and this process's user + system time.
fn cpu_seconds() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let steal = ticks(
        stat.lines()
            .next()
            .and_then(|l| l.split_whitespace().nth(8)),
    );
    (steal, user_system_seconds("/proc/self/stat"))
}

/// User + system time of the calling thread.
fn thread_cpu_seconds() -> f64 {
    user_system_seconds("/proc/thread-self/stat")
}

/// User + system time from a `stat` file of `/proc`.
fn user_system_seconds(path: &str) -> f64 {
    let stat = std::fs::read_to_string(path).unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit(')')
        .next()
        .unwrap_or("")
        .split_whitespace()
        .collect();
    ticks(fields.get(11).copied()) + ticks(fields.get(12).copied())
}

/// Seconds in a `/proc` counter of clock ticks (1/100 s).
fn ticks(v: Option<&str>) -> f64 {
    v.and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0) / 100.0
}

/// Stamps the window's wall, stolen and own CPU time since `start`.
fn close_window(window: &mut Window, wall_s: f64, start: (f64, f64)) {
    let (steal, cpu) = cpu_seconds();
    window.wall_s = wall_s;
    window.steal_s = steal - start.0;
    window.cpu_s = cpu - start.1;
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f`, recording it as a set-up span when `spans` is given.
fn stage<T>(
    spans: &mut Option<&mut SpanBuf>,
    name: &'static str,
    parent: usize,
    f: impl FnOnce() -> T,
) -> T {
    match spans {
        Some(buf) => buf.time(name, parent, NO_REQUEST, f),
        None => f(),
    }
}

/// Plans the workload's graph, starts the runtime and serves the warm-up
/// (the first `WARMUP` requests of the sequence, from `clients` callers).
pub fn setup_full(
    inputs: &FullGraph,
    clients: usize,
    mut spans: Option<&mut SpanBuf>,
) -> Result<Served, String> {
    let registry = Arc::new(Registry::new(TelemetryLevel::Counters));
    let root = new_id();
    let start = Instant::now();
    let plan = stage(&mut spans, "core.plan", root, || {
        Planner::default().plan_shared(&inputs.model, &inputs.dataset)
    })
    .map_err(|e| format!("plan: {e}"))?;
    let runtime = stage(&mut spans, "serve.start", root, || {
        ServeRuntime::start(plan, config(&registry))
    });
    let warm = stage(&mut spans, "bench.warmup", root, || {
        closed_loop(&runtime, inputs, 0, clients, Stop::Count(WARMUP), false)
    });
    let end = Instant::now();
    if let Some(buf) = spans {
        buf.record(root, "bench.setup", 0, NO_REQUEST, start, end);
    }
    check_warmup(&warm)?;
    Ok(Served {
        runtime,
        registry,
        setup_s: (end - start).as_secs_f64(),
    })
}

/// Compiles the model template, starts the runtime and serves the warm-up.
pub fn setup_egonet(inputs: &Egonet, mut spans: Option<&mut SpanBuf>) -> Result<Served, String> {
    let registry = Arc::new(Registry::new(TelemetryLevel::Counters));
    let root = new_id();
    let start = Instant::now();
    let template = stage(&mut spans, "core.plan", root, || {
        ModelTemplate::compile_shared(&inputs.model, EngineOptions::default())
    })
    .map_err(|e| format!("template: {e}"))?;
    let runtime = stage(&mut spans, "serve.start", root, || {
        ServeRuntime::start_template(template, config(&registry))
    });
    let warm = stage(&mut spans, "bench.warmup", root, || {
        let mut window = Window::default();
        for (i, req) in inputs.warmup.iter().enumerate() {
            let t0 = Instant::now();
            let result = runtime
                .submit_subgraph(req.graph.clone(), req.features.clone())
                .and_then(Ticket::wait);
            let (outcome, modeled_ms) = judge(result, None);
            window.samples.push(Sample {
                input: i,
                latency_ms: ms(t0.elapsed()),
                outcome,
                modeled_ms,
                done_s: start.elapsed().as_secs_f64(),
            });
        }
        window
    });
    let end = Instant::now();
    if let Some(buf) = spans {
        buf.record(root, "bench.setup", 0, NO_REQUEST, start, end);
    }
    check_warmup(&warm)?;
    Ok(Served {
        runtime,
        registry,
        setup_s: (end - start).as_secs_f64(),
    })
}

fn check_warmup(warm: &Window) -> Result<(), String> {
    let bad = warm
        .samples
        .iter()
        .filter(|s| s.outcome != Outcome::Correct)
        .count();
    if bad > 0 {
        return Err(format!(
            "{bad} of {} warm-up requests failed",
            warm.samples.len()
        ));
    }
    Ok(())
}

/// Classifies a served result, checking it against `oracle` when given.
fn judge(result: Result<InferenceReport, ServeError>, oracle: Option<&Oracle>) -> (Outcome, f64) {
    match result {
        Ok(report) => {
            let modeled = report
                .run(MappingStrategy::Dynamic)
                .map_or(0.0, |run| run.latency_ms);
            let correct = oracle.is_none_or(|o| o.matches(&report.output_embeddings));
            let outcome = if correct {
                Outcome::Correct
            } else {
                Outcome::Mismatch
            };
            (outcome, modeled)
        }
        Err(
            ServeError::QueueFull { .. }
            | ServeError::Overloaded { .. }
            | ServeError::DeadlineExceeded { .. },
        ) => (Outcome::Rejected, 0.0),
        Err(_) => (Outcome::Failed, 0.0),
    }
}

/// Closed loop: `clients` threads each submit request `i` (taken from one
/// shared counter starting at `first`, so the run serves a prefix of the
/// fixed sequence) and wait for it before sending the next.
pub fn closed_loop(
    runtime: &ServeRuntime,
    inputs: &FullGraph,
    first: usize,
    clients: usize,
    stop: Stop,
    trace: bool,
) -> Window {
    let next = AtomicUsize::new(first);
    let last = match stop {
        Stop::Count(n) => first + n,
        Stop::At(_) => usize::MAX,
    };
    let counters = cpu_seconds();
    let start = Instant::now();
    let per_client: Vec<(Vec<Sample>, Vec<f64>, SpanBuf)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut samples = Vec::new();
                    let mut late_ms = Vec::new();
                    let mut spans = SpanBuf::default();
                    // A closed-loop request is due as soon as the client's
                    // previous one returned.
                    let mut due = Instant::now();
                    loop {
                        if matches!(stop, Stop::At(t) if Instant::now() >= t) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= last {
                            break;
                        }
                        let input = inputs.input_of(i);
                        let features = inputs.pool[input].clone();
                        let t0 = Instant::now();
                        let submitted = runtime.submit(features);
                        let t1 = Instant::now();
                        let result = submitted.and_then(Ticket::wait);
                        let t2 = Instant::now();
                        late_ms.push(ms(t0 - due));
                        due = t2;
                        let (outcome, modeled_ms) = judge(result, inputs.oracles.get(input));
                        if trace {
                            let root = new_id();
                            spans.record(new_id(), "serve.admit", root, i as u64, t0, t1);
                            spans.record(new_id(), "serve.wait", root, i as u64, t1, t2);
                            spans.record(root, "bench.request", 0, i as u64, t0, t2);
                        }
                        samples.push(Sample {
                            input,
                            latency_ms: ms(t2 - t0),
                            outcome,
                            modeled_ms,
                            done_s: (t2 - start).as_secs_f64(),
                        });
                    }
                    (samples, late_ms, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut window = Window::default();
    close_window(&mut window, start.elapsed().as_secs_f64(), counters);
    for (samples, late_ms, spans) in per_client {
        window.samples.extend(samples);
        window.late_ms.extend(late_ms);
        window.spans.extend(spans);
    }
    window
}

/// One submission handed from the generator to the waiter.
struct Submitted {
    index: usize,
    root: usize,
    due: Instant,
    ticket: Result<Ticket, ServeError>,
}

/// Keeps the machine's CPUs out of their idle state while alive: one
/// spinning thread per CPU at `SCHED_IDLE` priority, which every runnable
/// thread of normal priority preempts at once.  An idle virtual CPU costs
/// each wake-up a round trip through the hypervisor, whose length follows
/// the load of the shared host; a spinning one wakes a thread as a busy
/// CPU would.
struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<thread::JoinHandle<f64>>,
}

impl KeepAwake {
    fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let cpus = thread::available_parallelism().map_or(1, |n| n.get());
        let threads = (0..cpus)
            .map(|_| {
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    if set_idle_priority() {
                        while !stop.load(Ordering::Relaxed) {
                            std::hint::spin_loop();
                        }
                    }
                    thread_cpu_seconds()
                })
            })
            .collect();
        KeepAwake { stop, threads }
    }

    /// Stops and joins the spinners; returns the CPU seconds they used.
    fn stop(mut self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        self.threads.drain(..).filter_map(|t| t.join().ok()).sum()
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Moves the calling thread to the `SCHED_IDLE` policy; false if refused.
fn set_idle_priority() -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` outlives the call, and pid 0 names the calling thread.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

/// Open loop: one generator thread submits stream requests `0..n` at their
/// Poisson due times without waiting for completions; one waiter thread
/// redeems the tickets in submission order.  Latency counts from the due
/// time, so a stalled generator shows up as latency.  The load leaves the
/// CPUs idle most of the time, so they are kept awake (see [`KeepAwake`]).
pub fn open_loop(runtime: &ServeRuntime, inputs: &Egonet, n: usize, trace: bool) -> Window {
    let (tx, rx) = mpsc::channel::<Submitted>();
    let counters = cpu_seconds();
    let awake = KeepAwake::start();
    let start = Instant::now();
    let ((late_ms, gen_spans), (samples, wait_spans, last_done)) = thread::scope(|scope| {
        let generator = scope.spawn(move || {
            let mut late_ms = Vec::with_capacity(n);
            let mut spans = SpanBuf::default();
            for (index, req) in inputs.stream.iter().take(n).enumerate() {
                let (graph, features) = (req.graph.clone(), req.features.clone());
                let due = start + Duration::from_secs_f64(inputs.arrivals_s[index]);
                let now = Instant::now();
                if due > now {
                    thread::sleep(due - now);
                }
                let t0 = Instant::now();
                let ticket = runtime.try_submit_subgraph(graph, features);
                let t1 = Instant::now();
                late_ms.push(ms(t0.saturating_duration_since(due)));
                let root = new_id();
                if trace {
                    spans.record(new_id(), "serve.admit", root, index as u64, t0, t1);
                }
                let submitted = Submitted {
                    index,
                    root,
                    due,
                    ticket,
                };
                if tx.send(submitted).is_err() {
                    break;
                }
            }
            (late_ms, spans)
        });
        let waiter = scope.spawn(move || {
            let mut samples = Vec::with_capacity(n);
            let mut spans = SpanBuf::default();
            let mut last_done = start;
            for sub in rx {
                let t0 = Instant::now();
                let result = sub.ticket.and_then(Ticket::wait);
                let done = Instant::now();
                last_done = done;
                let (outcome, modeled_ms) = judge(result, inputs.oracles.get(sub.index));
                if trace {
                    let i = sub.index as u64;
                    spans.record(new_id(), "serve.wait", sub.root, i, t0, done);
                    spans.record(sub.root, "bench.request", 0, i, sub.due, done);
                }
                samples.push(Sample {
                    input: sub.index,
                    latency_ms: ms(done.saturating_duration_since(sub.due)),
                    outcome,
                    modeled_ms,
                    done_s: (done - start).as_secs_f64(),
                });
            }
            (samples, spans, last_done)
        });
        (
            generator.join().expect("generator thread panicked"),
            waiter.join().expect("waiter thread panicked"),
        )
    });
    let mut spans = gen_spans;
    spans.extend(wait_spans);
    let mut window = Window {
        samples,
        late_ms,
        spans,
        ..Window::default()
    };
    let spun_s = awake.stop();
    close_window(&mut window, (last_done - start).as_secs_f64(), counters);
    window.cpu_s -= spun_s;
    window
}
