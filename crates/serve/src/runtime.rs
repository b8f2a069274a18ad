//! The serving runtime: a worker pool draining a bounded request queue.
//!
//! [`ServeRuntime::start`] spawns `workers` OS threads, each holding its own
//! [`Session`] over one shared `Arc<CompiledPlan>` — compiled state is
//! reference-counted, per-request state is thread-local, so no lock is held
//! during inference.  That sharing includes the plan's measured host kernel
//! calibration ([`CompiledPlan::calibration`]): the micro-calibration runs
//! at most once per process (inside planning, never on the serving path)
//! and every worker session dispatches through the same `Arc`'d fit.  Producers [`submit`](ServeRuntime::submit) feature
//! matrices and get a [`Ticket`] to wait on.  Workers are
//! work-conserving: a free worker takes whatever is already queued (up to
//! `max_batch` requests) and starts at once, serving it with a single
//! [`Session::infer_batch`] call.  Batches therefore form only from the
//! backlog that builds up while every worker is busy, which is when fusing
//! them pays; a lone request never waits for company.  A non-zero
//! [`ServeConfig::batch_deadline`] opts into a straggler wait instead.
//!
//! Because every request is profiled and priced from a freshly reset
//! analyzer/scheduler, a report does not depend on which worker served the
//! request or on what was served before it: the runtime's outputs are
//! bit-identical to a single serial session over the same request stream
//! (proved by `tests/integration_serve.rs`).

use crate::error::ServeError;
use crate::metrics::{MetricsCollector, ServeReport};
use crate::queue::{BoundedQueue, PushError};
use dynasparse::{
    CompiledPlan, InferenceReport, MappingStrategy, ModelTemplate, Session, SharedPricingTier,
};
use dynasparse_graph::{FeatureMatrix, Graph};
use dynasparse_matrix::MatrixError;
use dynasparse_telemetry::{CounterId, GaugeId, HistogramId, Registry};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// How a worker models the accelerator's occupancy after computing a batch.
///
/// The cycle-level simulator prices a request's accelerator execution but
/// runs on the host in microseconds of real time.  For wall-clock serving
/// experiments, `Modeled` makes each worker *occupy* its (virtual)
/// accelerator lane for the request's modeled steady-state latency — the
/// feature-transfer plus execution milliseconds the hardware would be busy —
/// so that measured throughput reflects the deployment the simulator
/// describes: one accelerator per worker, host-side profiling overlapped
/// with device occupancy of other lanes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeviceDwell {
    /// No dwell: workers run as fast as the host simulates (unit tests).
    None,
    /// Sleep for the execution backend's predicted per-request milliseconds
    /// ([`InferenceReport::predicted_kernel_ms`] plus the feature transfer),
    /// times `scale`; requests the backend did not price fall back to the
    /// modeled per-request milliseconds of `strategy` (then to the first
    /// priced strategy).
    Modeled {
        /// Strategy whose modeled latency prices unpriced requests.
        strategy: MappingStrategy,
        /// Multiplier on the modeled milliseconds (1.0 = faithful).
        scale: f64,
    },
}

/// Configuration of a [`ServeRuntime`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (each with its own session and virtual device lane).
    pub workers: usize,
    /// Maximum requests coalesced into one `infer_batch` call.
    pub max_batch: usize,
    /// How long a worker waits for stragglers once a batch starts forming.
    ///
    /// The default, [`Duration::ZERO`], is work-conserving: a free worker
    /// serves whatever is already queued at once, so batches form only from
    /// backlog.  A non-zero deadline adds up to that much latency to every
    /// request that arrives while a worker is idle, in exchange for a chance
    /// to fuse it with requests arriving within the window.
    pub batch_deadline: Duration,
    /// Bounded request-queue capacity (backpressure threshold).
    pub queue_capacity: usize,
    /// Mapping strategies every request is priced under.
    pub strategies: Vec<MappingStrategy>,
    /// Device-occupancy emulation (see [`DeviceDwell`]).
    pub device_dwell: DeviceDwell,
    /// Telemetry registry every worker session and queue gauge publishes
    /// into; `None` resolves to the process-global
    /// [`Registry::global`] (leveled by `DYNASPARSE_TELEMETRY`).
    pub telemetry: Option<Arc<Registry>>,
    /// Load-shedding watermarks `(high, low)` on queue depth, with
    /// hysteresis: once depth reaches `high`, submissions are rejected with
    /// [`ServeError::Overloaded`] until depth recedes to `low`; `None`
    /// disables shedding (pure backpressure, the previous behavior).
    pub shed_watermarks: Option<(usize, usize)>,
    /// Per-worker budget of session rebuilds after caught panics.  A worker
    /// that exhausts it opens its circuit breaker and retires; the last
    /// retiring worker closes the queue and fails residual tickets with
    /// [`ServeError::Abandoned`] instead of hanging them.
    pub max_worker_respawns: usize,
    /// Whether workers share a read-mostly pricing tier
    /// ([`SharedPricingTier`]): a kernel analysis priced by one worker is
    /// reused by every other worker serving the same plan/template, so a
    /// repeated density profile is analyzed once per pool instead of once
    /// per worker.  Cached entries are pure
    /// functions of their key, so sharing never changes any report
    /// (`tests/pricing_cache.rs`); disable to make workers price fully
    /// independently.  The per-session `DYNASPARSE_PRICING_CACHE=off`
    /// escape hatch also bypasses the tier.
    pub pricing_tier: bool,
}

impl PartialEq for ServeConfig {
    fn eq(&self, other: &Self) -> bool {
        let same_registry = match (&self.telemetry, &other.telemetry) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        };
        same_registry
            && self.workers == other.workers
            && self.max_batch == other.max_batch
            && self.batch_deadline == other.batch_deadline
            && self.queue_capacity == other.queue_capacity
            && self.strategies == other.strategies
            && self.device_dwell == other.device_dwell
            && self.shed_watermarks == other.shed_watermarks
            && self.max_worker_respawns == other.max_worker_respawns
            && self.pricing_tier == other.pricing_tier
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 1,
            max_batch: 8,
            batch_deadline: Duration::ZERO,
            queue_capacity: 64,
            strategies: vec![MappingStrategy::Dynamic],
            device_dwell: DeviceDwell::None,
            telemetry: None,
            shed_watermarks: None,
            max_worker_respawns: 32,
            pricing_tier: true,
        }
    }
}

impl ServeConfig {
    /// Sets the number of worker threads.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the micro-batch size cap.
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Sets the straggler wait (see [`ServeConfig::batch_deadline`]):
    /// zero, the default, serves the queued backlog at once; a non-zero
    /// deadline holds a lone request up to that long for batch-mates.
    pub fn batch_deadline(mut self, deadline: Duration) -> Self {
        self.batch_deadline = deadline;
        self
    }

    /// Sets the bounded queue capacity.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Sets the strategies priced on every request.
    pub fn strategies(mut self, strategies: &[MappingStrategy]) -> Self {
        self.strategies = strategies.to_vec();
        self
    }

    /// Sets the device-occupancy emulation mode.
    pub fn device_dwell(mut self, dwell: DeviceDwell) -> Self {
        self.device_dwell = dwell;
        self
    }

    /// Routes worker-session and queue telemetry into `registry` instead of
    /// the process-global one (tests inject leveled registries this way).
    pub fn telemetry(mut self, registry: Arc<Registry>) -> Self {
        self.telemetry = Some(registry);
        self
    }

    /// Enables load shedding with hysteresis: reject submissions once queue
    /// depth reaches `high`, resume once it recedes to `low` (clamped to
    /// `high`).
    pub fn shed_watermarks(mut self, high: usize, low: usize) -> Self {
        let high = high.max(1);
        self.shed_watermarks = Some((high, low.min(high)));
        self
    }

    /// Sets the per-worker circuit-breaker budget of post-panic session
    /// rebuilds.
    pub fn max_worker_respawns(mut self, respawns: usize) -> Self {
        self.max_worker_respawns = respawns;
        self
    }

    /// Enables or disables the pool-wide shared pricing tier.
    pub fn pricing_tier(mut self, enabled: bool) -> Self {
        self.pricing_tier = enabled;
        self
    }
}

/// Priority class of a submission: higher classes drain first; order within
/// a class stays FIFO.  Capacity and load shedding apply to all classes
/// alike (priority reorders service, it does not bypass admission).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Priority {
    /// Served before everything else (interactive traffic).
    High,
    /// The default class.
    #[default]
    Normal,
    /// Served only when no higher class is queued (batch/backfill traffic).
    Low,
}

impl Priority {
    /// Number of priority lanes in a runtime's queue.
    pub const LANES: usize = 3;

    fn lane(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// Per-submission admission options (see
/// [`ServeRuntime::submit_with`]).
///
/// ```
/// use dynasparse_serve::{Priority, SubmitOptions};
/// use std::time::Duration;
///
/// let opts = SubmitOptions::default()
///     .deadline(Duration::from_millis(50))
///     .priority(Priority::High);
/// assert_eq!(opts.deadline, Some(Duration::from_millis(50)));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubmitOptions {
    /// Time budget from submission; a request still queued when it expires
    /// is shed unexecuted with [`ServeError::DeadlineExceeded`].  `None`
    /// (default) waits indefinitely.
    pub deadline: Option<Duration>,
    /// Priority class (default [`Priority::Normal`]).
    pub priority: Priority,
    /// Fault injection: make this request panic inside the kernel path when
    /// the given kernel execution index runs (`None` = healthy).  This is
    /// the test hook proving supervision isolates a poisoned request; it
    /// has no production use.
    pub panic_at_kernel: Option<usize>,
}

impl SubmitOptions {
    /// Sets the deadline budget.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the priority class.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Arms the fault-injection hook: the request panics when kernel
    /// execution index `kernel` runs.
    pub fn panic_at_kernel(mut self, kernel: usize) -> Self {
        self.panic_at_kernel = Some(kernel);
        self
    }
}

struct Reply {
    result: Result<InferenceReport, ServeError>,
}

/// What one queued request carries: a bare feature matrix against the
/// runtime's fixed topology, or a `(subgraph, features)` pair against the
/// runtime's resident template.
enum Payload {
    Features(FeatureMatrix),
    Subgraph {
        graph: Graph,
        features: FeatureMatrix,
    },
}

struct QueuedRequest {
    id: u64,
    payload: Payload,
    enqueued: Instant,
    /// Absolute expiry stamped at submission; a request still queued past
    /// it is shed by the draining worker without executing.
    deadline: Option<Instant>,
    /// Armed fault injection: panic at this kernel execution index.
    fault: Option<usize>,
    reply: mpsc::Sender<Reply>,
}

impl QueuedRequest {
    fn expired_at(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now > d)
    }
}

/// Supervision state shared by the worker pool.
struct Supervisor {
    /// Workers still serving; the last one to retire on an open circuit
    /// breaker closes the queue and fails residual tickets.
    live_workers: AtomicUsize,
}

/// What the worker pool serves from: one compiled plan (every request
/// shares the topology) or one resident model template (every request
/// brings its own sampled subgraph).
enum Backend {
    Plan(Arc<CompiledPlan>),
    Template(Arc<ModelTemplate>),
}

/// Handle to one submitted request; redeem it with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    id: u64,
    rx: mpsc::Receiver<Reply>,
}

impl Ticket {
    /// Global request id (submission order; also the report's
    /// `request_index`).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the request's worker replies.
    pub fn wait(self) -> Result<InferenceReport, ServeError> {
        match self.rx.recv() {
            Ok(reply) => reply.result,
            // Sender dropped without replying: the worker died mid-request.
            Err(mpsc::RecvError) => Err(ServeError::WorkerLost),
        }
    }
}

/// Multi-threaded serving runtime over one shared [`CompiledPlan`].
///
/// ```
/// use dynasparse::Planner;
/// use dynasparse_graph::Dataset;
/// use dynasparse_model::GnnModel;
/// use dynasparse_serve::{ServeConfig, ServeRuntime};
///
/// let dataset = Dataset::Cora.spec().generate_scaled(42, 0.08);
/// let model = GnnModel::gcn(dataset.features.dim(), 8, dataset.spec.num_classes, 7);
/// let plan = Planner::default().plan_shared(&model, &dataset).unwrap();
///
/// // Two workers, micro-batches of up to 4 requests served through the
/// // batch-fused session path.
/// let runtime = ServeRuntime::start(plan, ServeConfig::default().workers(2).max_batch(4));
/// let ticket = runtime.submit(dataset.features.clone()).unwrap();
/// let report = ticket.wait().unwrap();
/// assert_eq!(report.request_index, 0);
///
/// let metrics = runtime.shutdown();
/// assert_eq!(metrics.requests, 1);
/// ```
pub struct ServeRuntime {
    backend: Backend,
    config: ServeConfig,
    queue: Arc<BoundedQueue<QueuedRequest>>,
    metrics: Arc<MetricsCollector>,
    telemetry: Arc<Registry>,
    workers: Vec<thread::JoinHandle<()>>,
    started: Instant,
    /// Hysteresis latch of the load-shedding policy: set when depth crossed
    /// the high watermark, cleared once it recedes to the low one.
    shedding: AtomicBool,
}

impl ServeRuntime {
    /// Spawns the worker pool and starts accepting requests.
    pub fn start(plan: Arc<CompiledPlan>, config: ServeConfig) -> Self {
        Self::start_backend(Backend::Plan(plan), config)
    }

    /// Spawns a worker pool serving per-request **subgraphs** against one
    /// resident [`ModelTemplate`]: submissions carry their own sampled
    /// topology ([`ServeRuntime::submit_subgraph`]), each worker
    /// instantiates the template per request and serves it through a single
    /// reusable session (the session is *rebound* to each instantiated
    /// plan, so its dispatcher and arenas are re-shaped across varying
    /// subgraph sizes, never re-allocated).
    ///
    /// ```
    /// use dynasparse::{EngineOptions, ModelTemplate};
    /// use dynasparse_graph::{Dataset, NeighborSampler};
    /// use dynasparse_model::GnnModel;
    /// use dynasparse_serve::{ServeConfig, ServeRuntime};
    ///
    /// let full = Dataset::Cora.spec().generate_scaled(42, 0.08);
    /// let model = GnnModel::gcn(full.features.dim(), 8, full.spec.num_classes, 7);
    /// let template = ModelTemplate::compile_shared(&model, EngineOptions::default()).unwrap();
    ///
    /// let runtime = ServeRuntime::start_template(template, ServeConfig::default());
    /// let sub = NeighborSampler::new([6, 3], 5).sample(&full.graph, &[1]);
    /// let features = sub.extract_features(&full.features);
    /// let ticket = runtime.submit_subgraph(sub.into_graph(), features).unwrap();
    /// let report = ticket.wait().unwrap();
    /// assert_eq!(report.request_index, 0);
    /// runtime.shutdown();
    /// ```
    pub fn start_template(template: Arc<ModelTemplate>, config: ServeConfig) -> Self {
        Self::start_backend(Backend::Template(template), config)
    }

    fn start_backend(backend: Backend, config: ServeConfig) -> Self {
        let queue = Arc::new(BoundedQueue::with_lanes(
            config.queue_capacity,
            Priority::LANES,
        ));
        let metrics = Arc::new(MetricsCollector::new(config.workers.max(1)));
        let telemetry = config.telemetry.clone().unwrap_or_else(Registry::global);
        if let Some((high, _)) = config.shed_watermarks {
            telemetry.gauge_set(GaugeId::ShedWatermark, high as f64);
        }
        let supervisor = Arc::new(Supervisor {
            live_workers: AtomicUsize::new(config.workers.max(1)),
        });
        // One read-mostly tier for the whole pool: workers publish priced
        // analyses into it and reuse each other's work across requests.
        let pricing_tier = config
            .pricing_tier
            .then(|| Arc::new(SharedPricingTier::new(PRICING_TIER_CAPACITY)));
        let workers = (0..config.workers.max(1))
            .map(|index| {
                let queue = Arc::clone(&queue);
                let metrics = Arc::clone(&metrics);
                let telemetry = Arc::clone(&telemetry);
                let supervisor = Arc::clone(&supervisor);
                let pricing_tier = pricing_tier.clone();
                let config = config.clone();
                match &backend {
                    Backend::Plan(plan) => {
                        let plan = Arc::clone(plan);
                        thread::Builder::new()
                            .name(format!("dynasparse-serve-{index}"))
                            .spawn(move || {
                                worker_loop(
                                    index,
                                    plan,
                                    config,
                                    queue,
                                    metrics,
                                    telemetry,
                                    supervisor,
                                    pricing_tier,
                                )
                            })
                            .expect("failed to spawn serve worker")
                    }
                    Backend::Template(template) => {
                        let template = Arc::clone(template);
                        thread::Builder::new()
                            .name(format!("dynasparse-serve-{index}"))
                            .spawn(move || {
                                template_worker_loop(
                                    index,
                                    template,
                                    config,
                                    queue,
                                    metrics,
                                    telemetry,
                                    supervisor,
                                    pricing_tier,
                                )
                            })
                            .expect("failed to spawn serve worker")
                    }
                }
            })
            .collect();
        ServeRuntime {
            backend,
            config,
            queue,
            metrics,
            telemetry,
            workers,
            started: Instant::now(),
            shedding: AtomicBool::new(false),
        }
    }

    /// The plan every worker serves from.
    ///
    /// # Panics
    ///
    /// Panics on a template runtime ([`ServeRuntime::start_template`]),
    /// which has no fixed plan — use [`ServeRuntime::template`] there.
    pub fn plan(&self) -> &Arc<CompiledPlan> {
        match &self.backend {
            Backend::Plan(plan) => plan,
            Backend::Template(_) => {
                panic!("a template runtime has no fixed plan; use ServeRuntime::template")
            }
        }
    }

    /// The resident template of a subgraph-serving runtime, `None` for a
    /// fixed-topology runtime.
    pub fn template(&self) -> Option<&Arc<ModelTemplate>> {
        match &self.backend {
            Backend::Plan(_) => None,
            Backend::Template(template) => Some(template),
        }
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Requests currently queued (excluding those being served).
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The telemetry registry the runtime's workers, queue gauges and
    /// session probes publish into — the injected
    /// [`ServeConfig::telemetry`] registry, or [`Registry::global`] when
    /// none was configured.  Snapshot it for Prometheus/JSON exposition.
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.telemetry
    }

    /// Submits a request, blocking while the queue is at capacity
    /// (backpressure).  Shape mismatches are rejected immediately with the
    /// same typed error [`Session::infer`] would produce.
    pub fn submit(&self, features: FeatureMatrix) -> Result<Ticket, ServeError> {
        self.submit_inner(features, SubmitOptions::default(), false)
    }

    /// Submits a request without blocking; a full queue returns
    /// [`ServeError::QueueFull`] instead of waiting.
    pub fn try_submit(&self, features: FeatureMatrix) -> Result<Ticket, ServeError> {
        self.submit_inner(features, SubmitOptions::default(), true)
    }

    /// [`ServeRuntime::submit`] with per-request admission options
    /// (deadline, priority class, fault injection).
    pub fn submit_with(
        &self,
        features: FeatureMatrix,
        options: SubmitOptions,
    ) -> Result<Ticket, ServeError> {
        self.submit_inner(features, options, false)
    }

    /// [`ServeRuntime::try_submit`] with per-request admission options.
    pub fn try_submit_with(
        &self,
        features: FeatureMatrix,
        options: SubmitOptions,
    ) -> Result<Ticket, ServeError> {
        self.submit_inner(features, options, true)
    }

    fn submit_inner(
        &self,
        features: FeatureMatrix,
        options: SubmitOptions,
        bounce: bool,
    ) -> Result<Ticket, ServeError> {
        let plan = match &self.backend {
            Backend::Plan(plan) => plan,
            Backend::Template(_) => {
                return Err(ServeError::ModeMismatch {
                    op: "serve submit",
                    expected: "per-request subgraphs (use submit_subgraph)",
                })
            }
        };
        let expected = (plan.num_vertices(), plan.input_dim());
        if features.shape() != expected {
            return Err(ServeError::Inference(
                MatrixError::ShapeMismatch {
                    op: "serve submit",
                    lhs: features.shape(),
                    rhs: expected,
                }
                .into(),
            ));
        }
        self.enqueue(Payload::Features(features), options, bounce)
    }

    /// Submits a `(subgraph, features)` request against the resident
    /// template, blocking while the queue is at capacity.  The pair is
    /// validated up front with the same typed errors
    /// [`ModelTemplate::instantiate`] would produce; a fixed-topology
    /// runtime rejects it with [`ServeError::ModeMismatch`].
    pub fn submit_subgraph(
        &self,
        graph: Graph,
        features: FeatureMatrix,
    ) -> Result<Ticket, ServeError> {
        self.submit_subgraph_inner(graph, features, SubmitOptions::default(), false)
    }

    /// Submits a subgraph request without blocking; a full queue returns
    /// [`ServeError::QueueFull`] instead of waiting.
    pub fn try_submit_subgraph(
        &self,
        graph: Graph,
        features: FeatureMatrix,
    ) -> Result<Ticket, ServeError> {
        self.submit_subgraph_inner(graph, features, SubmitOptions::default(), true)
    }

    /// [`ServeRuntime::submit_subgraph`] with per-request admission options.
    pub fn submit_subgraph_with(
        &self,
        graph: Graph,
        features: FeatureMatrix,
        options: SubmitOptions,
    ) -> Result<Ticket, ServeError> {
        self.submit_subgraph_inner(graph, features, options, false)
    }

    /// [`ServeRuntime::try_submit_subgraph`] with per-request admission
    /// options.
    pub fn try_submit_subgraph_with(
        &self,
        graph: Graph,
        features: FeatureMatrix,
        options: SubmitOptions,
    ) -> Result<Ticket, ServeError> {
        self.submit_subgraph_inner(graph, features, options, true)
    }

    fn submit_subgraph_inner(
        &self,
        graph: Graph,
        features: FeatureMatrix,
        options: SubmitOptions,
        bounce: bool,
    ) -> Result<Ticket, ServeError> {
        let template = match &self.backend {
            Backend::Template(template) => template,
            Backend::Plan(_) => {
                return Err(ServeError::ModeMismatch {
                    op: "serve submit_subgraph",
                    expected: "a fixed topology (use submit)",
                })
            }
        };
        template.validate_request(&graph, &features)?;
        self.enqueue(Payload::Subgraph { graph, features }, options, bounce)
    }

    /// The admission gate of the load-shedding policy: reject when depth
    /// has crossed the high watermark and has not yet receded to the low
    /// one (hysteresis, so a queue hovering at the boundary doesn't flap
    /// between accept and reject on every submission).
    fn admit(&self) -> Result<(), ServeError> {
        let Some((high, low)) = self.config.shed_watermarks else {
            return Ok(());
        };
        let depth = self.queue.len();
        let shedding = if self.shedding.load(Ordering::Relaxed) {
            if depth <= low {
                self.shedding.store(false, Ordering::Relaxed);
                false
            } else {
                true
            }
        } else if depth >= high {
            self.shedding.store(true, Ordering::Relaxed);
            true
        } else {
            false
        };
        if shedding {
            self.metrics.record_shed();
            self.telemetry.incr(0, CounterId::ServeShed);
            Err(ServeError::Overloaded {
                depth,
                watermark: high,
            })
        } else {
            Ok(())
        }
    }

    fn enqueue(
        &self,
        payload: Payload,
        options: SubmitOptions,
        bounce: bool,
    ) -> Result<Ticket, ServeError> {
        self.admit()?;
        let (tx, rx) = mpsc::channel();
        // The queue assigns the request id under its own lock, so accepted
        // requests are numbered gaplessly in FIFO order: a bounced or
        // rejected submission consumes no id, and `request_index` matches
        // what a serial session over the accepted stream would assign.
        let make = |id: u64| QueuedRequest {
            id,
            payload,
            enqueued: Instant::now(),
            deadline: options.deadline.map(|d| Instant::now() + d),
            fault: options.panic_at_kernel,
            reply: tx,
        };
        let lane = options.priority.lane();
        let pushed = if bounce {
            self.queue.try_push_with_at(lane, make)
        } else {
            self.queue.push_with_at(lane, make)
        };
        match pushed {
            Ok(id) => Ok(Ticket { id, rx }),
            Err(PushError::Full) => Err(ServeError::QueueFull {
                capacity: self.queue.capacity(),
            }),
            Err(PushError::Closed) => Err(ServeError::ShuttingDown),
        }
    }

    /// Convenience driver: submits every request (blocking on backpressure)
    /// and waits for all replies, returned in submission order.
    pub fn serve_all(
        &self,
        requests: impl IntoIterator<Item = FeatureMatrix>,
    ) -> Vec<Result<InferenceReport, ServeError>> {
        // Tickets buffer replies through their per-request channels, so
        // collecting them first cannot deadlock against the bounded queue:
        // workers never block on a reply send.
        let tickets: Vec<Result<Ticket, ServeError>> =
            requests.into_iter().map(|f| self.submit(f)).collect();
        tickets
            .into_iter()
            .map(|t| t.and_then(Ticket::wait))
            .collect()
    }

    /// Convenience driver for a template runtime: submits every
    /// `(subgraph, features)` request (blocking on backpressure) and waits
    /// for all replies, returned in submission order.
    pub fn serve_all_subgraphs(
        &self,
        requests: impl IntoIterator<Item = (Graph, FeatureMatrix)>,
    ) -> Vec<Result<InferenceReport, ServeError>> {
        let tickets: Vec<Result<Ticket, ServeError>> = requests
            .into_iter()
            .map(|(g, f)| self.submit_subgraph(g, f))
            .collect();
        tickets
            .into_iter()
            .map(|t| t.and_then(Ticket::wait))
            .collect()
    }

    /// Metrics accumulated so far, without stopping the runtime.
    pub fn snapshot(&self) -> ServeReport {
        self.metrics.report(self.started.elapsed())
    }

    /// Stops accepting requests, drains the queue, joins every worker and
    /// returns the final aggregate metrics.  Every queued ticket is served;
    /// a worker thread that died of an uncaught panic has its payload
    /// recovered into [`ServeReport::worker_failures`] (it used to be
    /// discarded).
    pub fn shutdown(self) -> ServeReport {
        self.queue.close();
        join_workers(self.workers, &self.metrics);
        self.metrics.report(self.started.elapsed())
    }

    /// Graceful shutdown under a drain budget: stops accepting requests,
    /// lets workers drain for up to `budget`, then fails every residual
    /// queued ticket with [`ServeError::Abandoned`] rather than serving it.
    /// No ticket hangs: each one resolves to a result, a typed error, or
    /// `Abandoned`.
    ///
    /// Workers still finish the batch they are executing when the budget
    /// runs out (a batch is not preemptible); only *queued* requests are
    /// abandoned.
    pub fn shutdown_with_deadline(self, budget: Duration) -> ServeReport {
        self.queue.close();
        let deadline = Instant::now() + budget;
        loop {
            if self.workers.iter().all(|w| w.is_finished()) {
                break;
            }
            if Instant::now() >= deadline {
                // Drain what the workers didn't get to and fail the tickets
                // (close() already stopped new arrivals, and workers exit
                // once the queue is empty, so this terminates).
                while let Some(drained) =
                    self.queue
                        .pop_batch_where(self.config.max_batch.max(1), Duration::ZERO, |_| false)
                {
                    for request in drained.batch.into_iter().chain(drained.expired) {
                        let _ = request.reply.send(Reply {
                            result: Err(ServeError::Abandoned {
                                reason: "shutdown drain deadline expired",
                            }),
                        });
                    }
                }
                break;
            }
            thread::sleep(Duration::from_millis(1));
        }
        join_workers(self.workers, &self.metrics);
        self.metrics.report(self.started.elapsed())
    }
}

/// Joins the pool, recovering (instead of discarding) the panic payload of
/// any worker whose thread died outside the supervisor's catch.
fn join_workers(workers: Vec<thread::JoinHandle<()>>, metrics: &MetricsCollector) {
    for (index, worker) in workers.into_iter().enumerate() {
        if let Err(payload) = worker.join() {
            metrics.record_worker_join_failure(format!(
                "worker {index} thread panicked: {}",
                panic_message(&payload)
            ));
        }
    }
}

/// Stringifies a caught panic payload (panics carry `&str` or `String` in
/// practice; anything else is opaque).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Abandonment reason used when a worker pool's circuit breaker opens.
const RESPAWN_EXHAUSTED: &str = "worker respawn budget exhausted";

/// Fails every deadline-expired request a drain produced; they never
/// execute and do not count as served requests.
fn shed_expired(
    index: usize,
    expired: Vec<QueuedRequest>,
    metrics: &MetricsCollector,
    telemetry: &Registry,
) {
    let now = Instant::now();
    for request in expired {
        let late = request
            .deadline
            .map(|d| now.saturating_duration_since(d))
            .unwrap_or_default();
        metrics.record_deadline_expired();
        telemetry.incr(index, CounterId::ServeDeadlineExpired);
        let _ = request.reply.send(Reply {
            result: Err(ServeError::DeadlineExceeded { late }),
        });
    }
}

/// Installs (or clears) the fault-injection hook for one request: panic
/// when the armed kernel execution index runs.
fn arm_fault(session: &mut Session<'_>, fault: Option<(u64, usize)>) {
    session.set_fault_hook(fault.map(|(id, kernel)| {
        Arc::new(move |k: usize| {
            if k == kernel {
                panic!("injected fault: request {id} panicked at kernel {kernel}");
            }
        }) as dynasparse::FaultHook
    }));
}

fn record_panic(index: usize, message: String, metrics: &MetricsCollector, telemetry: &Registry) {
    metrics.record_worker_panic(message);
    telemetry.incr(index, CounterId::ServeWorkerPanics);
}

/// Spends one respawn from the worker's budget; returns `false` (circuit
/// breaker open) when the budget is exhausted.
fn spend_respawn(
    index: usize,
    respawns_left: &mut usize,
    metrics: &MetricsCollector,
    telemetry: &Registry,
) -> bool {
    if *respawns_left == 0 {
        return false;
    }
    *respawns_left -= 1;
    metrics.record_worker_respawn();
    telemetry.incr(index, CounterId::ServeWorkerRespawns);
    true
}

/// Modeled device-lane occupancy for one served batch.
///
/// Each successful request occupies the lane for its feature transfer plus
/// the **execution backend's** predicted kernel milliseconds
/// ([`InferenceReport::predicted_kernel_ms`]) — host-calibrated or
/// accelerator-modeled, whichever backend routed the request.  Requests the
/// backend did not price (regions policy, reference path) fall back to
/// `strategy`'s modeled accelerator latency, then to the first priced
/// strategy, so the lane never idles through an unpriced batch.
fn modeled_dwell(results: &[Result<InferenceReport, ServeError>], dwell: DeviceDwell) -> Duration {
    match dwell {
        DeviceDwell::None => Duration::ZERO,
        DeviceDwell::Modeled { strategy, scale } => {
            let ms: f64 = results
                .iter()
                .filter_map(|r| r.as_ref().ok())
                .map(|report| {
                    if report.predicted_kernel_ms > 0.0 {
                        report.feature_movement_ms + report.predicted_kernel_ms
                    } else {
                        report
                            .amortized_ms(strategy)
                            .or_else(|| {
                                report
                                    .runs
                                    .first()
                                    .map(|run| report.feature_movement_ms + run.latency_ms)
                            })
                            .unwrap_or(0.0)
                    }
                })
                .sum();
            Duration::from_secs_f64((ms * scale.max(0.0)) / 1e3)
        }
    }
}

/// Retires a worker whose circuit breaker opened.  The last live worker to
/// retire closes the queue and fails every residual ticket — with nobody
/// left to drain, leaving them queued would hang their callers forever.
fn retire_worker(queue: &BoundedQueue<QueuedRequest>, supervisor: &Supervisor) {
    if supervisor.live_workers.fetch_sub(1, Ordering::SeqCst) == 1 {
        queue.close();
        while let Some(drained) = queue.pop_batch_where(64, Duration::ZERO, |_| false) {
            for request in drained.batch.into_iter().chain(drained.expired) {
                let _ = request.reply.send(Reply {
                    result: Err(ServeError::Abandoned {
                        reason: RESPAWN_EXHAUSTED,
                    }),
                });
            }
        }
    }
}

/// Records one request's queue wait (enqueue → `started`), host service
/// time and turnaround (enqueue → now, just before its reply is sent).
///
/// Service records host time only; the modeled device dwell shows up in the
/// turnaround, as it would in a real deployment where the reply follows
/// device completion.  Panicked and abandoned tickets never executed to
/// completion, so they stay out of the served-request count and latency
/// summaries — they are tallied by the supervision counters.
fn record_served(
    index: usize,
    metrics: &MetricsCollector,
    telemetry: &Registry,
    result: &Result<InferenceReport, ServeError>,
    enqueued: Instant,
    started: Instant,
    service: Duration,
) {
    if matches!(
        result,
        Err(ServeError::WorkerPanicked { .. }) | Err(ServeError::Abandoned { .. })
    ) {
        return;
    }
    let queue_wait = started.duration_since(enqueued);
    metrics.record_request(index, queue_wait, service, enqueued.elapsed());
    telemetry.observe(
        index,
        HistogramId::QueueWaitMicros,
        queue_wait.as_micros() as u64,
    );
    telemetry.observe(
        index,
        HistogramId::ServiceMicros,
        service.as_micros() as u64,
    );
}

/// Entries the pool-wide [`SharedPricingTier`] retains before FIFO aging;
/// sized for every (kernel, strategy, density-bucket) class a steady serving
/// mix cycles through, while bounding worst-case memory under adversarial
/// density churn.
const PRICING_TIER_CAPACITY: usize = 4096;

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    index: usize,
    plan: Arc<CompiledPlan>,
    config: ServeConfig,
    queue: Arc<BoundedQueue<QueuedRequest>>,
    metrics: Arc<MetricsCollector>,
    telemetry: Arc<Registry>,
    supervisor: Arc<Supervisor>,
    pricing_tier: Option<Arc<SharedPricingTier>>,
) {
    let mut session: Session<'static> = Session::shared(plan, &config.strategies);
    // The session publishes into the runtime's registry through the worker's
    // own shard, so per-shard counter breakdowns read as per-worker ones.
    session.set_telemetry(Arc::clone(&telemetry));
    session.set_telemetry_shard(index);
    // Workers memoize pricing across the pool; the tier survives post-panic
    // rebuilds because `rebuild_after_panic` carries it like telemetry.
    session.set_pricing_tier(pricing_tier);
    // Size the fused-batch arena for the worker's batch cap up front, so
    // `max_batch` buys kernel-level fusion (one kernel pass per layer per
    // micro-batch) without mid-serving buffer growth.
    session.reserve_batch(config.max_batch);
    let mut respawns_left = config.max_worker_respawns;
    while let Some(drained) =
        queue.pop_batch_where(config.max_batch, config.batch_deadline, |request| {
            request.expired_at(Instant::now())
        })
    {
        shed_expired(index, drained.expired, &metrics, &telemetry);
        let batch = drained.batch;
        if batch.is_empty() {
            continue;
        }
        let picked = Instant::now();
        let batch_size = batch.len();
        metrics.record_batch(batch_size);
        telemetry.gauge_set(GaugeId::QueueDepth, queue.len() as f64);
        telemetry.incr(index, CounterId::ServeBatches);
        telemetry.add(index, CounterId::ServeRequests, batch_size as u64);
        telemetry.observe(index, HistogramId::BatchSize, batch_size as u64);

        // Take the feature matrices out of the requests (no copies) so the
        // whole micro-batch is served by one `infer_batch` call.
        let mut envelopes = Vec::with_capacity(batch_size);
        let mut features = Vec::with_capacity(batch_size);
        for request in batch {
            envelopes.push((request.id, request.enqueued, request.reply, request.fault));
            match request.payload {
                Payload::Features(f) => features.push(f),
                // Submission routes subgraph payloads only into template
                // runtimes, whose workers run `template_worker_loop`.
                Payload::Subgraph { .. } => {
                    unreachable!("plan-mode runtime accepted a subgraph payload")
                }
            }
        }

        // Fast path: one fused `infer_batch` call under the supervisor's
        // catch.  The fused pass has no per-request isolation, so a panic
        // poisons the whole batch — the supervisor then rebuilds the
        // session and retries each request individually, so only the
        // poisoned ticket fails with `WorkerPanicked`.
        arm_fault(
            &mut session,
            envelopes
                .iter()
                .find_map(|&(id, _, _, fault)| fault.map(|k| (id, k))),
        );
        let served = catch_unwind(AssertUnwindSafe(|| session.infer_batch(&features)));
        let batch_elapsed = picked.elapsed();
        // Host time attributed to each request: its share of the batch call.
        let per_request = batch_elapsed / batch_size as u32;

        let mut breaker_open = false;
        let results: Vec<Result<InferenceReport, ServeError>> = match served {
            // Shapes were validated at submission, so a session error here
            // is systemic (it would fail every request of the batch
            // identically) and is replied to all of them.
            Ok(served) => {
                arm_fault(&mut session, None);
                match served {
                    Ok(reports) => reports
                        .into_iter()
                        .zip(envelopes.iter())
                        .map(|(mut report, &(id, _, _, _))| {
                            // Session-local indices are meaningless across a
                            // pool; stamp the global submission id instead,
                            // which is what a serial session would have
                            // assigned.
                            report.request_index = id as usize;
                            Ok(report)
                        })
                        .collect(),
                    Err(e) => envelopes
                        .iter()
                        .map(|_| Err(ServeError::Inference(e.clone())))
                        .collect(),
                }
            }
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                record_panic(index, message.clone(), &metrics, &telemetry);
                if !spend_respawn(index, &mut respawns_left, &metrics, &telemetry) {
                    breaker_open = true;
                    if batch_size == 1 {
                        // The sole request is the poisoned one; its ticket
                        // gets the panic, not a vague abandonment.
                        vec![Err(ServeError::WorkerPanicked { message })]
                    } else {
                        envelopes
                            .iter()
                            .map(|_| {
                                Err(ServeError::Abandoned {
                                    reason: RESPAWN_EXHAUSTED,
                                })
                            })
                            .collect()
                    }
                } else if batch_size == 1 {
                    // A batch of one needs no isolating retry: the panic
                    // already names its only possible culprit.
                    session.rebuild_after_panic();
                    session.reserve_batch(config.max_batch);
                    vec![Err(ServeError::WorkerPanicked { message })]
                } else {
                    // The unwound forward pass left arena/scratch state
                    // partially written; rebuild before serving again, then
                    // isolate the poisoned request by retrying one by one.
                    session.rebuild_after_panic();
                    session.reserve_batch(config.max_batch);
                    let mut retried = Vec::with_capacity(batch_size);
                    for (&(id, _, _, fault), feature) in envelopes.iter().zip(&features) {
                        if breaker_open {
                            retried.push(Err(ServeError::Abandoned {
                                reason: RESPAWN_EXHAUSTED,
                            }));
                            continue;
                        }
                        arm_fault(&mut session, fault.map(|k| (id, k)));
                        let one = catch_unwind(AssertUnwindSafe(|| session.infer(feature)));
                        match one {
                            Ok(result) => {
                                arm_fault(&mut session, None);
                                retried.push(
                                    result
                                        .map(|mut report| {
                                            report.request_index = id as usize;
                                            report
                                        })
                                        .map_err(ServeError::Inference),
                                );
                            }
                            Err(payload) => {
                                let message = panic_message(payload.as_ref());
                                record_panic(index, message.clone(), &metrics, &telemetry);
                                if spend_respawn(index, &mut respawns_left, &metrics, &telemetry) {
                                    session.rebuild_after_panic();
                                    session.reserve_batch(config.max_batch);
                                } else {
                                    breaker_open = true;
                                }
                                retried.push(Err(ServeError::WorkerPanicked { message }));
                            }
                        }
                    }
                    retried
                }
            }
        };

        let dwell = modeled_dwell(&results, config.device_dwell);
        if dwell > Duration::ZERO {
            // The worker's virtual accelerator lane is busy executing the
            // batch; the host thread parks with no locks held, so sibling
            // lanes keep draining the queue.
            thread::sleep(dwell);
        }

        for ((_, enqueued, reply, _), result) in envelopes.into_iter().zip(results) {
            record_served(
                index,
                &metrics,
                &telemetry,
                &result,
                enqueued,
                picked,
                per_request,
            );
            // A dropped ticket (caller gave up) is fine; ignore send errors.
            let _ = reply.send(Reply { result });
        }

        if breaker_open {
            retire_worker(&queue, &supervisor);
            return;
        }
    }
}

/// The subgraph-serving worker: every request carries its own topology, so
/// each is instantiated from the resident template and served individually
/// through **one reusable session**.  The first request builds the session;
/// every later request *rebinds* it to the newly instantiated plan — the
/// template shares its model and calibration with every instance by
/// pointer, so the rebind keeps the dispatcher, the kernel arena and the
/// per-kernel profile scratch, merely re-shaping buffers across varying
/// subgraph sizes (capacity only ever grows to the high-water mark).
///
/// A drained batch is a backlog, not a fused call: each reply leaves as soon
/// as its own request and modeled dwell are done.  A request's queue wait
/// therefore runs until the worker starts *it*, so time spent behind its
/// batch-mates counts as queueing, and its service time is its own.
#[allow(clippy::too_many_arguments)]
fn template_worker_loop(
    index: usize,
    template: Arc<ModelTemplate>,
    config: ServeConfig,
    queue: Arc<BoundedQueue<QueuedRequest>>,
    metrics: Arc<MetricsCollector>,
    telemetry: Arc<Registry>,
    supervisor: Arc<Supervisor>,
    pricing_tier: Option<Arc<SharedPricingTier>>,
) {
    let mut session: Option<Session<'static>> = None;
    let mut respawns_left = config.max_worker_respawns;
    let mut breaker_open = false;
    while let Some(drained) =
        queue.pop_batch_where(config.max_batch, config.batch_deadline, |request| {
            request.expired_at(Instant::now())
        })
    {
        shed_expired(index, drained.expired, &metrics, &telemetry);
        let batch = drained.batch;
        if batch.is_empty() {
            continue;
        }
        let batch_size = batch.len();
        metrics.record_batch(batch_size);
        telemetry.gauge_set(GaugeId::QueueDepth, queue.len() as f64);
        telemetry.incr(index, CounterId::ServeBatches);
        telemetry.add(index, CounterId::ServeRequests, batch_size as u64);
        telemetry.observe(index, HistogramId::BatchSize, batch_size as u64);

        // Nothing is fused here, so nothing waits for a batch-mate: each
        // request is served, occupies the device lane for its own modeled
        // dwell and is replied to before the next one starts.  The lane's
        // total occupancy is the batch's summed dwell, as before.
        for request in batch {
            let fault = request.fault.map(|k| (request.id, k));
            let (graph, features) = match request.payload {
                Payload::Subgraph { graph, features } => (graph, features),
                // Submission routes feature-only payloads only into
                // fixed-topology runtimes.
                Payload::Features(_) => {
                    unreachable!("template-mode runtime accepted a plan payload")
                }
            };
            if breaker_open {
                let _ = request.reply.send(Reply {
                    result: Err(ServeError::Abandoned {
                        reason: RESPAWN_EXHAUSTED,
                    }),
                });
                continue;
            }
            let started = Instant::now();
            // Requests are served individually here (each brings its own
            // topology), so the supervisor's catch already isolates a
            // poisoned request: only its ticket fails.
            let served = catch_unwind(AssertUnwindSafe(|| {
                template
                    .instantiate(&graph, &features)
                    .and_then(|instance| {
                        let plan = instance.into_plan();
                        let active = match session.as_mut() {
                            Some(active) => {
                                active.rebind(plan);
                                active
                            }
                            None => {
                                let built = session.insert(plan.session_shared(&config.strategies));
                                built.set_telemetry(Arc::clone(&telemetry));
                                built.set_telemetry_shard(index);
                                // Template keys are content-addressed, so
                                // structurally identical subgraphs hit
                                // across workers and across rebinds.
                                built.set_pricing_tier(pricing_tier.clone());
                                built
                            }
                        };
                        arm_fault(active, fault);
                        let result = active.infer(&features);
                        arm_fault(active, None);
                        result
                    })
            }));
            let mut result = match served {
                Ok(result) => result.map_err(ServeError::Inference),
                Err(payload) => {
                    let message = panic_message(payload.as_ref());
                    record_panic(index, message.clone(), &metrics, &telemetry);
                    // The unwound pass left the session's arena/scratch
                    // state partially written; drop it so the next request
                    // rebuilds a fresh rebinding session from the template.
                    session = None;
                    if !spend_respawn(index, &mut respawns_left, &metrics, &telemetry) {
                        breaker_open = true;
                    }
                    Err(ServeError::WorkerPanicked { message })
                }
            };
            let service = started.elapsed();
            // Stamp the global submission id (session-local indices restart
            // per rebind epoch and are meaningless across a pool).
            if let Ok(report) = &mut result {
                report.request_index = request.id as usize;
            }

            let dwell = modeled_dwell(std::slice::from_ref(&result), config.device_dwell);
            if dwell > Duration::ZERO {
                thread::sleep(dwell);
            }
            record_served(
                index,
                &metrics,
                &telemetry,
                &result,
                request.enqueued,
                started,
                service,
            );
            let _ = request.reply.send(Reply { result });
        }

        if breaker_open {
            retire_worker(&queue, &supervisor);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynasparse::{EngineOptions, Planner};
    use dynasparse_graph::Dataset;
    use dynasparse_matrix::DenseMatrix;
    use dynasparse_model::{GnnModel, GnnModelKind};

    fn plan_fixture() -> (Arc<CompiledPlan>, FeatureMatrix) {
        let ds = Dataset::Cora.spec().generate_scaled(5, 0.08);
        let model = GnnModel::standard(
            GnnModelKind::Gcn,
            ds.features.dim(),
            8,
            ds.spec.num_classes,
            2,
        );
        let plan = Planner::new(EngineOptions::default())
            .plan_shared(&model, &ds)
            .unwrap();
        (plan, ds.features)
    }

    #[test]
    fn serves_requests_and_reports_metrics() {
        let (plan, features) = plan_fixture();
        let runtime = ServeRuntime::start(
            Arc::clone(&plan),
            ServeConfig::default().workers(2).max_batch(4),
        );
        let results = runtime.serve_all((0..6).map(|_| features.clone()));
        assert_eq!(results.len(), 6);
        for r in &results {
            assert!(r.is_ok());
        }
        let report = runtime.shutdown();
        assert_eq!(report.requests, 6);
        assert!(report.batches >= 2, "6 requests, max_batch 4 → ≥ 2 batches");
        assert!(report.throughput_rps > 0.0);
        assert!(report.mean_batch_size() >= 1.0);
        assert_eq!(
            report.worker_loads.iter().map(|w| w.requests).sum::<u64>(),
            6
        );
    }

    #[test]
    fn request_ids_are_submission_order_and_stamped_into_reports() {
        let (plan, features) = plan_fixture();
        let runtime = ServeRuntime::start(plan, ServeConfig::default());
        let t0 = runtime.submit(features.clone()).unwrap();
        let t1 = runtime.submit(features).unwrap();
        assert_eq!((t0.id(), t1.id()), (0, 1));
        assert_eq!(t0.wait().unwrap().request_index, 0);
        assert_eq!(t1.wait().unwrap().request_index, 1);
        runtime.shutdown();
    }

    #[test]
    fn shape_mismatch_is_rejected_at_submission() {
        let (plan, _) = plan_fixture();
        let runtime = ServeRuntime::start(plan, ServeConfig::default());
        let wrong = FeatureMatrix::Dense(DenseMatrix::zeros(3, 5));
        let err = runtime.submit(wrong).unwrap_err();
        assert!(matches!(err, ServeError::Inference(_)));
        let report = runtime.shutdown();
        assert_eq!(report.requests, 0);
    }

    #[test]
    fn try_submit_bounces_when_the_queue_is_full() {
        let (plan, features) = plan_fixture();
        // Zero workers is clamped to one; a tiny queue plus a dwell long
        // enough to park the worker makes the bounce deterministic once the
        // queue reports full.
        let runtime = ServeRuntime::start(
            plan,
            ServeConfig::default()
                .workers(1)
                .max_batch(1)
                .queue_capacity(1)
                .device_dwell(DeviceDwell::Modeled {
                    strategy: MappingStrategy::Dynamic,
                    scale: 100.0,
                }),
        );
        // Fill: the worker takes one request onto its lane, then the queue
        // itself can hold one more; keep pushing until it reports full.
        let mut tickets = Vec::new();
        let mut bounced = false;
        for _ in 0..64 {
            match runtime.try_submit(features.clone()) {
                Ok(t) => tickets.push(t),
                Err(ServeError::QueueFull { capacity }) => {
                    assert_eq!(capacity, 1);
                    bounced = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(bounced, "a capacity-1 queue must eventually bounce");
        runtime.shutdown();
    }

    fn template_fixture() -> (Arc<ModelTemplate>, dynasparse_graph::GraphDataset) {
        let ds = Dataset::Cora.spec().generate_scaled(5, 0.08);
        let model = GnnModel::standard(
            GnnModelKind::Gcn,
            ds.features.dim(),
            8,
            ds.spec.num_classes,
            2,
        );
        let template = ModelTemplate::compile_shared(&model, EngineOptions::default()).unwrap();
        (template, ds)
    }

    #[test]
    fn template_runtime_serves_varying_subgraphs_through_one_session() {
        use dynasparse_graph::NeighborSampler;
        let (template, ds) = template_fixture();
        let runtime = ServeRuntime::start_template(
            Arc::clone(&template),
            ServeConfig::default().workers(1).max_batch(3),
        );
        assert!(runtime.template().is_some());

        // Different roots and fanouts → subgraphs of different sizes flow
        // through the same worker session via rebind.
        let requests: Vec<(Graph, FeatureMatrix)> = (0..5)
            .map(|i| {
                let sampler = NeighborSampler::new([4 + i, 2], 11 + i as u64);
                let sub = sampler.sample(&ds.graph, &[i as u32 * 7]);
                let features = sub.extract_features(&ds.features);
                (sub.into_graph(), features)
            })
            .collect();
        let sizes: Vec<usize> = requests.iter().map(|(g, _)| g.num_vertices()).collect();
        assert!(
            sizes.windows(2).any(|w| w[0] != w[1]),
            "fixture should produce varying subgraph sizes, got {sizes:?}"
        );

        let results = runtime.serve_all_subgraphs(requests);
        assert_eq!(results.len(), 5);
        for (i, r) in results.iter().enumerate() {
            let report = r.as_ref().expect("subgraph request should serve");
            assert_eq!(report.request_index, i);
            assert_eq!(report.output_embeddings.shape().0, sizes[i]);
        }
        let report = runtime.shutdown();
        assert_eq!(report.requests, 5);
    }

    #[test]
    fn template_replies_leave_per_request_not_per_batch() {
        use dynasparse_graph::NeighborSampler;
        let (template, ds) = template_fixture();
        let strategies = [MappingStrategy::Dynamic];
        // Four copies of one subgraph, so every request dwells alike.
        let sub = NeighborSampler::new([5, 3], 31).sample(&ds.graph, &[7]);
        let features = sub.extract_features(&ds.features);
        let requests = vec![(sub.into_graph(), features); 4];
        // Serial reference: a fresh session on the instantiated subgraph.
        let (graph, features) = &requests[0];
        let plan = template.instantiate(graph, features).unwrap().into_plan();
        let want = plan.session(&strategies).infer(features).unwrap();
        let dwell_at = |scale: f64, report: &InferenceReport| {
            let dwell = DeviceDwell::Modeled {
                strategy: MappingStrategy::Dynamic,
                scale,
            };
            modeled_dwell(&[Ok(report.clone())], dwell)
        };
        // Scale the modeled dwell so each request occupies the lane for
        // about 50 ms: ample time to queue a backlog behind the first.
        let unit = dwell_at(1.0, &want);
        assert!(unit > Duration::ZERO, "fixture must have a modeled dwell");
        let scale = 0.05 / unit.as_secs_f64();

        let runtime = ServeRuntime::start_template(
            Arc::clone(&template),
            ServeConfig::default()
                .workers(1)
                .max_batch(4)
                .batch_deadline(Duration::ZERO)
                .device_dwell(DeviceDwell::Modeled {
                    strategy: MappingStrategy::Dynamic,
                    scale,
                }),
        );
        // The first request parks the worker on its dwell; the other three
        // queue behind it and, with no straggler wait, drain as one batch.
        let (graph, features) = requests[0].clone();
        let parked = runtime.submit_subgraph(graph, features).unwrap();
        while runtime.queue_depth() > 0 {
            thread::yield_now();
        }
        let backlog: Vec<Ticket> = requests[1..]
            .iter()
            .cloned()
            .map(|(graph, features)| runtime.submit_subgraph(graph, features).unwrap())
            .collect();
        let mut got = vec![parked.wait().unwrap()];
        let mut resolved = Vec::new();
        for ticket in backlog {
            got.push(ticket.wait().unwrap());
            resolved.push(Instant::now());
        }
        let report = runtime.shutdown();
        assert!(
            report.batch_histogram.iter().any(|bar| bar.size == 3),
            "the three queued requests must drain as one batch: {:?}",
            report.batch_histogram
        );

        // Each reply leaves after its own dwell, not after the batch's.
        let spread = resolved[2] - resolved[0];
        let last_dwell = dwell_at(scale, &got[3]);
        assert!(
            spread >= last_dwell / 2,
            "first and last backlog replies {spread:?} apart; one dwell is {last_dwell:?}"
        );
        for (i, got) in got.iter().enumerate() {
            assert_eq!(got.request_index, i);
            assert_eq!(got.output_embeddings, want.output_embeddings, "request {i}");
            assert_eq!(got.density_trace, want.density_trace, "request {i}");
            assert_eq!(
                got.feature_movement_ms.to_bits(),
                want.feature_movement_ms.to_bits(),
                "request {i}"
            );
            for (g, w) in got.runs.iter().zip(&want.runs) {
                assert_eq!(g.total_cycles, w.total_cycles, "request {i}");
                assert_eq!(
                    g.latency_ms.to_bits(),
                    w.latency_ms.to_bits(),
                    "request {i}"
                );
            }
        }
    }

    #[test]
    fn submission_mode_is_enforced_in_both_directions() {
        let (plan, _) = plan_fixture();
        let (template, ds) = template_fixture();

        let fixed = ServeRuntime::start(plan, ServeConfig::default());
        assert!(fixed.template().is_none());
        let err = fixed
            .submit_subgraph(ds.graph.clone(), ds.features.clone())
            .unwrap_err();
        assert!(matches!(err, ServeError::ModeMismatch { .. }));
        fixed.shutdown();

        let templated = ServeRuntime::start_template(template, ServeConfig::default());
        let err = templated.submit(ds.features.clone()).unwrap_err();
        assert!(matches!(err, ServeError::ModeMismatch { .. }));
        // Invalid pairs bounce at submission with the instantiate error.
        let wrong = FeatureMatrix::Dense(DenseMatrix::zeros(ds.graph.num_vertices(), 3));
        let err = templated
            .submit_subgraph(ds.graph.clone(), wrong)
            .unwrap_err();
        assert!(matches!(err, ServeError::Inference(_)));
        let report = templated.shutdown();
        assert_eq!(report.requests, 0);
    }

    #[test]
    fn shutdown_rejects_new_submissions() {
        let (plan, features) = plan_fixture();
        let runtime = ServeRuntime::start(Arc::clone(&plan), ServeConfig::default());
        runtime.queue.close();
        assert!(matches!(
            runtime.submit(features).unwrap_err(),
            ServeError::ShuttingDown
        ));
        runtime.shutdown();
    }

    #[test]
    fn expired_deadline_requests_are_shed_with_typed_error() {
        let (plan, features) = plan_fixture();
        // A long dwell parks the single worker on its first request, so the
        // deadline of the queued second request expires before pickup.
        let runtime = ServeRuntime::start(
            plan,
            ServeConfig::default()
                .workers(1)
                .max_batch(1)
                .device_dwell(DeviceDwell::Modeled {
                    strategy: MappingStrategy::Dynamic,
                    scale: 50.0,
                }),
        );
        let healthy = runtime.submit(features.clone()).unwrap();
        thread::sleep(Duration::from_millis(10));
        let doomed = runtime
            .submit_with(
                features,
                SubmitOptions::default().deadline(Duration::from_nanos(1)),
            )
            .unwrap();
        assert!(healthy.wait().is_ok());
        match doomed.wait() {
            Err(ServeError::DeadlineExceeded { late }) => assert!(late > Duration::ZERO),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let report = runtime.shutdown();
        assert_eq!(report.deadline_expired, 1);
        assert_eq!(report.requests, 1, "the shed request never served");
    }

    #[test]
    fn load_shedding_trips_at_high_watermark_with_hysteresis() {
        let (plan, features) = plan_fixture();
        // Long dwell parks the worker so queue depth only grows while we
        // submit; watermark (2, 0) means depth 2 trips shedding and only a
        // fully drained queue resumes.
        let runtime = ServeRuntime::start(
            plan,
            ServeConfig::default()
                .workers(1)
                .max_batch(1)
                .queue_capacity(16)
                .shed_watermarks(2, 0)
                .device_dwell(DeviceDwell::Modeled {
                    strategy: MappingStrategy::Dynamic,
                    scale: 50.0,
                }),
        );
        let mut tickets = Vec::new();
        let mut shed = 0;
        for _ in 0..8 {
            match runtime.try_submit(features.clone()) {
                Ok(t) => tickets.push(t),
                Err(ServeError::Overloaded { depth, watermark }) => {
                    assert_eq!(watermark, 2);
                    assert!(depth >= 1);
                    shed += 1;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
            thread::sleep(Duration::from_millis(2));
        }
        assert!(shed > 0, "depth must reach the high watermark and shed");
        for t in tickets {
            t.wait().unwrap();
        }
        let report = runtime.shutdown();
        assert_eq!(report.shed, shed);
    }

    #[test]
    fn injected_panic_fails_only_its_ticket_and_batch_mates_survive() {
        let (plan, features) = plan_fixture();
        let runtime = ServeRuntime::start(
            Arc::clone(&plan),
            ServeConfig::default().workers(1).max_batch(4),
        );
        // One poisoned request sandwiched between healthy ones.
        let healthy_before = runtime.submit(features.clone()).unwrap();
        let poisoned = runtime
            .submit_with(
                features.clone(),
                SubmitOptions::default().panic_at_kernel(0),
            )
            .unwrap();
        let healthy_after = runtime.submit(features.clone()).unwrap();

        assert!(healthy_before.wait().is_ok());
        match poisoned.wait() {
            Err(ServeError::WorkerPanicked { message }) => {
                assert!(message.contains("injected fault"), "got: {message}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        assert!(healthy_after.wait().is_ok());

        // The respawned session keeps serving bit-identically.
        let after_respawn = runtime.submit(features).unwrap().wait().unwrap();
        assert!(after_respawn.runs[0].latency_ms > 0.0);

        let report = runtime.shutdown();
        assert!(report.worker_panics >= 1);
        assert!(report.worker_respawns >= 1);
        assert!(
            report
                .worker_failures
                .iter()
                .any(|m| m.contains("injected fault")),
            "panic payload must surface in worker_failures: {:?}",
            report.worker_failures
        );
    }

    #[test]
    fn circuit_breaker_drains_residual_tickets_instead_of_hanging() {
        let (plan, features) = plan_fixture();
        // Budget 0: the first panic opens the breaker; the lone worker must
        // retire AND fail everything still queued.
        let runtime = ServeRuntime::start(
            plan,
            ServeConfig::default()
                .workers(1)
                .max_batch(1)
                .max_worker_respawns(0)
                .device_dwell(DeviceDwell::Modeled {
                    strategy: MappingStrategy::Dynamic,
                    scale: 20.0,
                }),
        );
        // A healthy request parks the worker on its dwell, so the poisoned
        // request and the residuals are all queued before the panic retires
        // the worker (a retired pool refuses further submissions).
        let parked = runtime.submit(features.clone()).unwrap();
        let poisoned = runtime
            .submit_with(
                features.clone(),
                SubmitOptions::default().panic_at_kernel(0),
            )
            .unwrap();
        let queued: Vec<Ticket> = (0..3)
            .map(|_| runtime.submit(features.clone()).unwrap())
            .collect();
        // The poisoned ticket names its own panic; only the never-executed
        // residuals are abandoned.
        assert!(parked.wait().is_ok());
        assert!(matches!(
            poisoned.wait(),
            Err(ServeError::WorkerPanicked { .. })
        ));
        for t in queued {
            assert!(
                matches!(t.wait(), Err(ServeError::Abandoned { .. })),
                "residual tickets must be drained as errors, not hung"
            );
        }
        let report = runtime.shutdown();
        assert_eq!(report.worker_panics, 1);
        assert_eq!(report.worker_respawns, 0);
    }

    #[test]
    fn priorities_reorder_service_of_a_parked_backlog() {
        let (plan, features) = plan_fixture();
        // Park the worker with a dwell, then queue low-priority before
        // high-priority: the high one must serve first.
        let runtime = ServeRuntime::start(
            plan,
            ServeConfig::default()
                .workers(1)
                .max_batch(1)
                .device_dwell(DeviceDwell::Modeled {
                    strategy: MappingStrategy::Dynamic,
                    scale: 30.0,
                }),
        );
        let _warm = runtime.submit(features.clone()).unwrap();
        thread::sleep(Duration::from_millis(10));
        let low = runtime
            .submit_with(
                features.clone(),
                SubmitOptions::default().priority(Priority::Low),
            )
            .unwrap();
        let high = runtime
            .submit_with(features, SubmitOptions::default().priority(Priority::High))
            .unwrap();
        // Both serve; the turnaround ordering is asserted structurally via
        // worker pickup order: high finished no later than low's reply.
        let high_report = high.wait().unwrap();
        let low_report = low.wait().unwrap();
        // Submission ids stay submission-ordered even though service
        // reordered.
        assert!(high_report.request_index > low_report.request_index);
        runtime.shutdown();
    }

    #[test]
    fn shutdown_with_deadline_fails_residual_tickets() {
        let (plan, features) = plan_fixture();
        let runtime = ServeRuntime::start(
            plan,
            ServeConfig::default()
                .workers(1)
                .max_batch(1)
                .device_dwell(DeviceDwell::Modeled {
                    strategy: MappingStrategy::Dynamic,
                    scale: 200.0,
                }),
        );
        // First request parks the worker on a long dwell; the rest stay
        // queued past the tiny drain budget.
        let tickets: Vec<Ticket> = (0..4)
            .map(|_| runtime.submit(features.clone()).unwrap())
            .collect();
        thread::sleep(Duration::from_millis(10));
        let report = runtime.shutdown_with_deadline(Duration::from_millis(1));
        let mut outcomes: Vec<Result<InferenceReport, ServeError>> =
            tickets.into_iter().map(Ticket::wait).collect();
        // The in-flight request completes; residual queued ones are
        // abandoned — and none hang (wait() returned for all).
        let abandoned = outcomes
            .iter()
            .filter(|r| matches!(r, Err(ServeError::Abandoned { .. })))
            .count();
        assert!(abandoned >= 1, "budget too small to drain 4 dwells");
        let served = outcomes.iter().filter(|r| r.is_ok()).count();
        assert_eq!(served as u64, report.requests);
        // No ticket may resolve to a hang-proxy (WorkerLost).
        assert!(!outcomes
            .iter_mut()
            .any(|r| matches!(r, Err(ServeError::WorkerLost))));
    }
}
