//! The traced replay: the workload's request stream, one request at a time,
//! through the public entry point of each layer.
//!
//! Per request the replay calls, in order:
//!
//! | span | layer | call |
//! |---|---|---|
//! | `matrix.to_csr` | matrix | `CsrMatrix::from_dense` (dense inputs only) |
//! | `core.instantiate` | core | `ModelTemplate::instantiate` (subgraph inputs only) |
//! | `core.rebind` | core | `Session::rebind` of both sessions (subgraph inputs only) |
//! | `matrix.profile` | matrix | `FeatureMatrix::density_profile` |
//! | `core.infer` | core | `Session::infer` with Dynamic pricing |
//! | `model.forward` | model | `Session::infer` of an unpriced twin session |
//!
//! all under one `bench.replay` root span.  Pricing has no entry point of
//! its own, so its cost is reported as `core.infer − model.forward`.
//!
//! The replay runs two lanes with their own sessions over the same stream:
//! one traced, one timed only as a whole.  Their order alternates per
//! request, and the difference between them is the tracing overhead.
//!
//! Entry points a workload's serving path never calls (instantiate and
//! rebind for a resident full-graph plan, `from_dense` for CSR requests)
//! are timed a few times on its first input under a `bench.offpath` root,
//! so every layer metric is measured on every workload: they report what
//! that step would cost this workload.

use crate::spans::{new_id, SpanBuf, NO_REQUEST};
use crate::workload::{Egonet, FullGraph, Oracle};
use dynasparse::{
    CompiledPlan, EngineOptions, MappingStrategy, ModelTemplate, OwnedSession, Registry,
    TelemetryLevel,
};
use dynasparse_graph::{FeatureMatrix, Graph};
use dynasparse_matrix::CsrMatrix;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the replay measured.
#[derive(Default)]
pub struct Replay {
    /// Spans of the traced lane.
    pub spans: SpanBuf,
    pub requests: usize,
    /// Whole-request seconds of the untraced lane.
    pub untraced_s: f64,
    /// Whole-request seconds of the traced lane.
    pub traced_s: f64,
    /// Outputs (of either lane) that differ from the oracle.
    pub mismatches: usize,
}

/// Samples of each off-path entry point.
const OFF_PATH_SAMPLES: usize = 3;

/// A priced session and its unpriced twin.
struct Lane {
    priced: OwnedSession,
    unpriced: OwnedSession,
}

impl Lane {
    fn open(open: impl Fn(&[MappingStrategy]) -> OwnedSession, registry: &Arc<Registry>) -> Lane {
        let mut priced = open(&[MappingStrategy::Dynamic]);
        let mut unpriced = open(&[]);
        priced.set_telemetry(Arc::clone(registry));
        unpriced.set_telemetry(Arc::clone(registry));
        Lane { priced, unpriced }
    }
}

/// Runs `f` inside a span when the lane is traced.
fn step<T>(
    spans: &mut Option<&mut SpanBuf>,
    name: &'static str,
    root: usize,
    request: usize,
    f: impl FnOnce() -> T,
) -> T {
    match spans {
        Some(buf) => buf.time(name, root, request as u64, f),
        None => f(),
    }
}

/// Replays requests `0, 1, …` for `budget`, both lanes per request.
/// `serve(i, lane, spans, root)` performs request `i` on `lane` and returns
/// the priced and the unpriced embeddings.
fn drive<'a>(
    budget: Duration,
    mut lanes: [Option<Lane>; 2],
    oracle_of: impl Fn(usize) -> &'a Oracle,
    mut serve: impl FnMut(
        usize,
        &mut Option<Lane>,
        &mut Option<&mut SpanBuf>,
        usize,
    ) -> Result<(FeatureMatrix, FeatureMatrix), String>,
) -> Result<Replay, String> {
    let mut replay = Replay::default();
    let mut traced_spans = SpanBuf::default();
    let end = Instant::now() + budget;
    while Instant::now() < end {
        let i = replay.requests;
        for pass in 0..2 {
            let traced = (i + pass) % 2 == 1;
            let mut spans = traced.then_some(&mut traced_spans);
            let root = new_id();
            let start = Instant::now();
            let (priced, unpriced) = serve(i, &mut lanes[traced as usize], &mut spans, root)?;
            let stop = Instant::now();
            if let Some(buf) = spans {
                buf.record(root, "bench.replay", 0, i as u64, start, stop);
                replay.traced_s += (stop - start).as_secs_f64();
            } else {
                replay.untraced_s += (stop - start).as_secs_f64();
            }
            let oracle = oracle_of(i);
            replay.mismatches += usize::from(!oracle.matches(&priced));
            replay.mismatches += usize::from(!oracle.matches(&unpriced));
        }
        replay.requests += 1;
    }
    replay.spans = traced_spans;
    Ok(replay)
}

/// Profiles, prices and runs one full-graph request on `lane`.
fn infer_both(
    lane: &mut Lane,
    features: &FeatureMatrix,
    plan: &CompiledPlan,
    spans: &mut Option<&mut SpanBuf>,
    root: usize,
    i: usize,
) -> Result<(FeatureMatrix, FeatureMatrix), String> {
    let grid = plan
        .partition()
        .feature_grid(plan.num_vertices(), plan.input_dim());
    step(spans, "matrix.profile", root, i, || {
        black_box(features.density_profile(&grid))
    });
    let priced = step(spans, "core.infer", root, i, || lane.priced.infer(features))
        .map_err(|e| format!("replay infer: {e}"))?;
    let unpriced = step(spans, "model.forward", root, i, || {
        lane.unpriced.infer(features)
    })
    .map_err(|e| format!("replay forward: {e}"))?;
    Ok((priced.output_embeddings, unpriced.output_embeddings))
}

/// Times instantiating `graph` through a fresh template and rebinding a
/// session to the instance.
fn off_path_template(
    spans: &mut SpanBuf,
    plan: &CompiledPlan,
    graph: &Graph,
    features: &FeatureMatrix,
) -> Result<(), String> {
    let template = ModelTemplate::compile(plan.model(), EngineOptions::default())
        .map_err(|e| format!("off-path template: {e}"))?;
    let root = new_id();
    let start = Instant::now();
    let mut session: Option<OwnedSession> = None;
    for _ in 0..OFF_PATH_SAMPLES {
        let instance = spans
            .time("core.instantiate", root, NO_REQUEST, || {
                template.instantiate(graph, features)
            })
            .map_err(|e| format!("off-path instantiate: {e}"))?;
        let session = session.get_or_insert_with(|| instance.session(&[MappingStrategy::Dynamic]));
        spans.time("core.rebind", root, NO_REQUEST, || {
            session.rebind(Arc::clone(instance.plan()))
        });
    }
    spans.record(root, "bench.offpath", 0, NO_REQUEST, start, Instant::now());
    Ok(())
}

/// Times CSR-encoding a dense copy of `features`.
fn off_path_to_csr(spans: &mut SpanBuf, features: &FeatureMatrix) {
    let dense = features.to_dense();
    let root = new_id();
    let start = Instant::now();
    for _ in 0..OFF_PATH_SAMPLES {
        spans.time("matrix.to_csr", root, NO_REQUEST, || {
            black_box(CsrMatrix::from_dense(&dense))
        });
    }
    spans.record(root, "bench.offpath", 0, NO_REQUEST, start, Instant::now());
}

/// Replays the full-graph request sequence against the resident plan.
pub fn replay_full(
    plan: &Arc<CompiledPlan>,
    inputs: &FullGraph,
    budget: Duration,
) -> Result<Replay, String> {
    let registry = Arc::new(Registry::new(TelemetryLevel::Counters));
    let open = |s: &[MappingStrategy]| plan.session_shared(s);
    let lanes = [
        Some(Lane::open(open, &registry)),
        Some(Lane::open(open, &registry)),
    ];
    let mut replay = drive(
        budget,
        lanes,
        |i| &inputs.oracles[inputs.input_of(i)],
        |i, lane, spans, root| {
            let lane = lane.as_mut().expect("full-graph lanes open up front");
            let features = &inputs.pool[inputs.input_of(i)];
            if let FeatureMatrix::Dense(dense) = features {
                step(spans, "matrix.to_csr", root, i, || {
                    black_box(CsrMatrix::from_dense(dense))
                });
            }
            infer_both(lane, features, plan, spans, root, i)
        },
    )?;
    let first = &inputs.pool[inputs.input_of(0)];
    off_path_template(&mut replay.spans, plan, &inputs.dataset.graph, first)?;
    if first.is_sparse() {
        off_path_to_csr(&mut replay.spans, first);
    }
    Ok(replay)
}

/// Replays the ego-net stream: instantiate the template per request and
/// rebind both sessions of the lane to it.
pub fn replay_egonet(
    template: &Arc<ModelTemplate>,
    inputs: &Egonet,
    budget: Duration,
) -> Result<Replay, String> {
    let registry = Arc::new(Registry::new(TelemetryLevel::Counters));
    let n = inputs.stream.len().max(1);
    let mut replay = drive(
        budget,
        [None, None],
        |i| &inputs.oracles[i % n],
        |i, lane, spans, root| {
            let req = &inputs.stream[i % n];
            let instance = step(spans, "core.instantiate", root, i, || {
                template.instantiate(&req.graph, &req.features)
            })
            .map_err(|e| format!("replay instantiate: {e}"))?;
            let plan = instance.plan();
            let lane = lane.get_or_insert_with(|| Lane::open(|s| instance.session(s), &registry));
            step(spans, "core.rebind", root, i, || {
                lane.priced.rebind(Arc::clone(plan))
            });
            step(spans, "core.rebind", root, i, || {
                lane.unpriced.rebind(Arc::clone(plan))
            });
            infer_both(lane, &req.features, plan, spans, root, i)
        },
    )?;
    off_path_to_csr(&mut replay.spans, &inputs.stream[0].features);
    Ok(replay)
}
