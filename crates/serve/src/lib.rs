//! # dynasparse-serve
//!
//! Concurrent serving runtime for Dynasparse inference: plan caching,
//! a worker thread pool over one shared [`CompiledPlan`], bounded request
//! queueing with micro-batching, and serving metrics.
//!
//! Dynasparse's premise is that compilation — sparsity profiling,
//! partitioning (Algorithm 9), kernel mapping schemes — runs once per
//! (model, graph topology) and is amortized across every inference request,
//! while *dynamic* sparsity decisions stay on the request path.  This crate
//! preserves that split under concurrency:
//!
//! - [`PlanCache`] memoizes [`Planner::plan`](dynasparse::Planner::plan)
//!   behind a structural [`PlanFingerprint`] of (model, topology), with LRU
//!   eviction and hit/miss stats — repeated traffic against known
//!   topologies never recompiles.
//! - [`ServeRuntime`] spawns worker threads that each open a
//!   [`Session`](dynasparse::Session) over the same `Arc<CompiledPlan>`
//!   (no deep copy of weights or adjacencies — they are reference-counted)
//!   and drain a bounded MPMC queue.  Workers are work-conserving: a free
//!   worker takes whatever is already queued, up to `max_batch` requests,
//!   and serves it at once with one `infer_batch` call, so micro-batches
//!   form from the backlog that builds up while every worker is busy.  A
//!   non-zero [`ServeConfig::batch_deadline`] adds that much latency to a
//!   request that arrives while a worker is idle.
//! - Production traffic control keeps behavior bounded under overload and
//!   faults: per-request deadlines and priority classes
//!   ([`SubmitOptions`]), a load-shedding watermark with hysteresis
//!   ([`ServeConfig::shed_watermarks`]), `catch_unwind` worker supervision
//!   that fails only the poisoned ticket and respawns the session (capped
//!   by a circuit breaker), and deadline-bounded draining
//!   ([`ServeRuntime::shutdown_with_deadline`]) — every submitted ticket
//!   resolves to a result or a typed [`ServeError`], never hangs.
//! - [`ServeReport`] aggregates per-request queue wait, service latency
//!   (p50/p99/p99.9), throughput, the batch-size histogram, per-worker
//!   loads, and the shed/expired/panic/respawn counts.
//!
//! Reports are **bit-identical** to a single serial session over the same
//! request stream: each request's runtime profiling and pricing starts from
//! freshly reset state, so worker placement and batching cannot change any
//! number (see `tests/integration_serve.rs`).
//!
//! ## Quickstart
//!
//! ```
//! use dynasparse::{MappingStrategy, Planner};
//! use dynasparse_graph::Dataset;
//! use dynasparse_model::{GnnModel, GnnModelKind};
//! use dynasparse_serve::{PlanCache, ServeConfig, ServeRuntime};
//!
//! let dataset = Dataset::Cora.spec().generate_scaled(42, 0.1);
//! let model = GnnModel::standard(
//!     GnnModelKind::Gcn,
//!     dataset.features.dim(),
//!     16,
//!     dataset.spec.num_classes,
//!     7,
//! );
//!
//! // Compile once per (model, topology) — cached, LRU-evicted, shared.
//! let mut cache = PlanCache::new(Planner::default(), 8);
//! let plan = cache.get_or_plan(&model, &dataset).unwrap();
//! assert_eq!(cache.stats().misses, 1);
//! // A second lookup with the same topology is a hit: zero recompilation.
//! let same = cache.get_or_plan(&model, &dataset).unwrap();
//! assert_eq!(cache.stats().hits, 1);
//! assert!(std::sync::Arc::ptr_eq(&plan, &same));
//!
//! // Serve: 2 workers, micro-batches of up to 4 requests.
//! let runtime = ServeRuntime::start(
//!     plan,
//!     ServeConfig::default()
//!         .workers(2)
//!         .max_batch(4)
//!         .strategies(&[MappingStrategy::Dynamic]),
//! );
//! let results = runtime.serve_all((0..8).map(|_| dataset.features.clone()));
//! assert!(results.iter().all(|r| r.is_ok()));
//!
//! let report = runtime.shutdown();
//! assert_eq!(report.requests, 8);
//! println!(
//!     "{:.0} req/s, queue p99 {:.2} ms, mean batch {:.1}",
//!     report.throughput_rps,
//!     report.queue_wait.p99_ms,
//!     report.mean_batch_size(),
//! );
//! ```
//!
//! [`CompiledPlan`]: dynasparse::CompiledPlan

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
mod digest;
pub mod error;
pub mod fingerprint;
pub mod metrics;
pub mod queue;
pub mod runtime;

pub use cache::{CacheStats, PlanCache, TemplateCache};
pub use error::ServeError;
pub use fingerprint::{ModelFingerprint, PlanFingerprint};
pub use metrics::{BatchBar, LatencySummary, MetricsCollector, ServeReport, WorkerLoad};
pub use queue::{BoundedQueue, DrainedBatch, PushError};
pub use runtime::{DeviceDwell, Priority, ServeConfig, ServeRuntime, SubmitOptions, Ticket};
