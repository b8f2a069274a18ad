//! Concurrency correctness of the serving runtime.
//!
//! The load-bearing claim of `dynasparse-serve` is that concurrency is
//! *free* of numerical consequences: N worker threads serving one shared
//! `Arc<CompiledPlan>` produce bit-identical `InferenceReport`s to a single
//! serial session over the same request stream, regardless of worker count,
//! batching, or scheduling interleavings.  That holds because every request
//! is profiled and priced from freshly reset analyzer/scheduler state, and
//! the plan itself is immutable.

use dynasparse::{CompiledPlan, InferenceReport, MappingStrategy, Planner, Session};
use dynasparse_graph::{generators::dense_features, Dataset, FeatureMatrix};
use dynasparse_model::{GnnModel, GnnModelKind};
use dynasparse_serve::{DeviceDwell, PlanCache, ServeConfig, ServeRuntime};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn plan_fixture() -> (Arc<CompiledPlan>, FeatureMatrix) {
    let ds = Dataset::Cora.spec().generate_scaled(13, 0.1);
    let model = GnnModel::standard(
        GnnModelKind::Gcn,
        ds.features.dim(),
        16,
        ds.spec.num_classes,
        3,
    );
    let plan = Planner::default().plan_shared(&model, &ds).unwrap();
    (plan, ds.features)
}

/// A request stream with per-request feature matrices of varying densities,
/// so requests are distinguishable and each exercises the dynamic mapping
/// differently.
fn request_stream(plan: &CompiledPlan, n: usize) -> Vec<FeatureMatrix> {
    (0..n)
        .map(|i| {
            let density = 0.05 + 0.9 * (i as f64 / n.max(1) as f64);
            dense_features(
                plan.num_vertices(),
                plan.input_dim(),
                density,
                100 + i as u64,
            )
        })
        .collect()
}

/// Bit-level equality of two reports, down to every float.
fn assert_reports_identical(a: &InferenceReport, b: &InferenceReport, ctx: &str) {
    assert_eq!(a.request_index, b.request_index, "{ctx}: request_index");
    assert_eq!(
        a.data_movement_ms.to_bits(),
        b.data_movement_ms.to_bits(),
        "{ctx}: data_movement_ms"
    );
    assert_eq!(
        a.feature_movement_ms.to_bits(),
        b.feature_movement_ms.to_bits(),
        "{ctx}: feature_movement_ms"
    );
    assert_eq!(a.density_trace, b.density_trace, "{ctx}: density_trace");
    assert_eq!(
        a.output_embeddings, b.output_embeddings,
        "{ctx}: output embeddings"
    );
    assert_eq!(a.runs.len(), b.runs.len(), "{ctx}: run count");
    for (ra, rb) in a.runs.iter().zip(b.runs.iter()) {
        assert_eq!(ra.strategy, rb.strategy, "{ctx}: strategy order");
        assert_eq!(ra.total_cycles, rb.total_cycles, "{ctx}: cycles");
        assert_eq!(
            ra.latency_ms.to_bits(),
            rb.latency_ms.to_bits(),
            "{ctx}: latency"
        );
        assert_eq!(
            ra.end_to_end_ms.to_bits(),
            rb.end_to_end_ms.to_bits(),
            "{ctx}: end_to_end"
        );
        assert_eq!(
            ra.average_utilization.to_bits(),
            rb.average_utilization.to_bits(),
            "{ctx}: utilization"
        );
        assert_eq!(ra.kernels.len(), rb.kernels.len(), "{ctx}: kernel count");
        for (ka, kb) in ra.kernels.iter().zip(rb.kernels.iter()) {
            assert_eq!(
                (ka.kernel_id, ka.layer_id, ka.kind, ka.cycles, ka.decisions),
                (kb.kernel_id, kb.layer_id, kb.kind, kb.cycles, kb.decisions),
                "{ctx}: kernel identity/cost"
            );
            assert_eq!(ka.mix, kb.mix, "{ctx}: primitive mix");
            assert_eq!(
                ka.input_density.to_bits(),
                kb.input_density.to_bits(),
                "{ctx}: input density"
            );
            assert_eq!(
                ka.output_density.to_bits(),
                kb.output_density.to_bits(),
                "{ctx}: output density"
            );
        }
    }
}

/// Serial ground truth: one session, requests in submission order.
fn serial_reports(
    plan: &Arc<CompiledPlan>,
    strategies: &[MappingStrategy],
    stream: &[FeatureMatrix],
) -> Vec<InferenceReport> {
    let mut session = plan.session(strategies);
    stream.iter().map(|f| session.infer(f).unwrap()).collect()
}

#[test]
fn raw_threads_over_one_shared_plan_match_serial_bit_for_bit() {
    let (plan, _) = plan_fixture();
    let strategies = MappingStrategy::paper_strategies();
    let stream = request_stream(&plan, 12);
    let want = serial_reports(&plan, &strategies, &stream);

    // 4 threads, each with its own Session over the SAME Arc'd plan,
    // serving an interleaved slice of the stream.
    let workers: Vec<_> = (0..4)
        .map(|w| {
            let plan = Arc::clone(&plan);
            let mine: Vec<(usize, FeatureMatrix)> = stream
                .iter()
                .cloned()
                .enumerate()
                .filter(|(i, _)| i % 4 == w)
                .collect();
            thread::spawn(move || {
                let mut session = plan.session_shared(&MappingStrategy::paper_strategies());
                mine.into_iter()
                    .map(|(i, f)| (i, session.infer(&f).unwrap()))
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    for worker in workers {
        for (i, mut got) in worker.join().unwrap() {
            // A thread-local session numbers its own requests; align with
            // the stream position like the serving runtime does.
            got.request_index = i;
            assert_reports_identical(&want[i], &got, &format!("request {i}"));
        }
    }
}

#[test]
fn serve_runtime_is_bit_identical_to_serial_serving() {
    let (plan, _) = plan_fixture();
    let strategies = [MappingStrategy::Dynamic, MappingStrategy::Static1];
    let stream = request_stream(&plan, 16);
    let want = serial_reports(&plan, &strategies, &stream);

    for (workers, max_batch) in [(1usize, 1usize), (4, 1), (4, 4)] {
        let runtime = ServeRuntime::start(
            Arc::clone(&plan),
            ServeConfig::default()
                .workers(workers)
                .max_batch(max_batch)
                .batch_deadline(Duration::from_millis(1))
                .strategies(&strategies),
        );
        let results = runtime.serve_all(stream.iter().cloned());
        let report = runtime.shutdown();
        assert_eq!(report.requests as usize, stream.len());
        for (i, result) in results.into_iter().enumerate() {
            let got = result.expect("request failed");
            assert_reports_identical(
                &want[i],
                &got,
                &format!("workers={workers} max_batch={max_batch} request {i}"),
            );
        }
    }
}

#[test]
fn micro_batching_coalesces_without_changing_results() {
    let (plan, _) = plan_fixture();
    let stream = request_stream(&plan, 8);
    let want = serial_reports(&plan, &[MappingStrategy::Dynamic], &stream);

    // One worker parked on a long first dwell lets the remaining requests
    // pile up, forcing at least one multi-request batch — both under the
    // work-conserving default and under an opt-in straggler wait.
    let default_deadline = ServeConfig::default().batch_deadline;
    for deadline in [default_deadline, Duration::from_millis(20)] {
        let runtime = ServeRuntime::start(
            Arc::clone(&plan),
            ServeConfig::default()
                .workers(1)
                .max_batch(4)
                .batch_deadline(deadline)
                .device_dwell(DeviceDwell::Modeled {
                    strategy: MappingStrategy::Dynamic,
                    scale: 10.0,
                }),
        );
        let results = runtime.serve_all(stream.iter().cloned());
        let report = runtime.shutdown();
        for (i, result) in results.into_iter().enumerate() {
            assert_reports_identical(
                &want[i],
                &result.unwrap(),
                &format!("deadline {deadline:?} request {i}"),
            );
        }
        assert!(
            report.batches < report.requests,
            "deadline {deadline:?}: with a single parked worker some batches \
             must coalesce ({} batches for {} requests)",
            report.batches,
            report.requests,
        );
        assert!(
            report.batch_histogram.iter().any(|bar| bar.size > 1),
            "deadline {deadline:?}: batch histogram must show a coalesced batch"
        );
    }
}

#[test]
fn plan_cache_hits_share_plans_across_serving_runtimes() {
    let ds = Dataset::Cora.spec().generate_scaled(13, 0.1);
    let model = GnnModel::standard(
        GnnModelKind::Gcn,
        ds.features.dim(),
        16,
        ds.spec.num_classes,
        3,
    );
    let mut cache = PlanCache::new(Planner::default(), 2);
    let plan_a = cache.get_or_plan(&model, &ds).unwrap();
    let plan_b = cache.get_or_plan(&model, &ds).unwrap();
    assert!(Arc::ptr_eq(&plan_a, &plan_b));
    assert_eq!(cache.stats().hits, 1);
    assert_eq!(cache.stats().misses, 1);

    // The same cached plan backs two runtimes in sequence; both serve the
    // same stream identically.
    let stream = request_stream(&plan_a, 4);
    let want = serial_reports(&plan_a, &[MappingStrategy::Dynamic], &stream);
    for plan in [plan_a, plan_b] {
        let runtime = ServeRuntime::start(plan, ServeConfig::default().workers(2));
        let results = runtime.serve_all(stream.iter().cloned());
        runtime.shutdown();
        for (i, r) in results.into_iter().enumerate() {
            assert_reports_identical(&want[i], &r.unwrap(), &format!("cached plan request {i}"));
        }
    }
}

#[test]
fn session_strategies_slice_and_requests_served_survive_the_refactor() {
    let (plan, features) = plan_fixture();
    let strategies = MappingStrategy::paper_strategies();
    let mut session: Session<'_> = plan.session(&strategies);
    assert_eq!(session.strategies(), &strategies[..]);
    session.infer(&features).unwrap();
    assert_eq!(session.requests_served(), 1);
}

#[test]
fn multi_worker_telemetry_merge_is_complete_and_deterministic() {
    use dynasparse_telemetry::{CounterId, Registry, TelemetryLevel};

    let (plan, _) = plan_fixture();
    let stream = request_stream(&plan, 9);

    // Ground truth for kernels-per-request: one serial request through a
    // session publishing into its own trace-level registry.
    let probe_registry = Arc::new(Registry::new(TelemetryLevel::Trace));
    let mut probe = plan.session(&[MappingStrategy::Dynamic]);
    probe.set_telemetry(Arc::clone(&probe_registry));
    probe.infer(&stream[0]).unwrap();
    let kernels_per_request = probe_registry.counter(CounterId::KernelSpans);
    assert!(
        kernels_per_request > 0,
        "a dispatched request must record kernel spans"
    );

    // Two identical runs with fresh injected registries: the merged view
    // must be complete (no span lost across worker shards) and the totals
    // deterministic (independent of worker scheduling).
    let mut totals = Vec::new();
    for run in 0..2 {
        let registry = Arc::new(Registry::new(TelemetryLevel::Trace));
        let runtime = ServeRuntime::start(
            Arc::clone(&plan),
            ServeConfig::default()
                .workers(3)
                .max_batch(1)
                .telemetry(Arc::clone(&registry)),
        );
        let results = runtime.serve_all(stream.iter().cloned());
        runtime.shutdown();
        for r in results {
            r.expect("request failed");
        }

        let expected_spans = stream.len() as u64 * kernels_per_request;
        let per_shard = registry.counter_per_shard(CounterId::KernelSpans);
        assert_eq!(
            per_shard.iter().sum::<u64>(),
            expected_spans,
            "run {run}: per-worker shard counts must merge to requests x kernels/request \
             (shards: {per_shard:?})"
        );
        assert_eq!(registry.counter(CounterId::KernelSpans), expected_spans);
        assert_eq!(
            registry.counter(CounterId::ServeRequests),
            stream.len() as u64
        );
        assert_eq!(
            registry.counter(CounterId::SessionRequests),
            stream.len() as u64
        );

        totals.push((
            registry.counter(CounterId::KernelSpans),
            registry.counter(CounterId::DispatchGemm),
            registry.counter(CounterId::DispatchSpdmm),
            registry.counter(CounterId::DispatchSpmm),
            registry.counter(CounterId::DispatchSkip),
        ));
    }
    assert_eq!(
        totals[0], totals[1],
        "merged telemetry totals must not depend on worker scheduling"
    );
}

#[test]
fn serving_workers_share_the_plans_measured_calibration() {
    // The host micro-calibration is planned once and `Arc`-shared: spinning
    // up a multi-worker runtime must not re-measure it per worker, and the
    // served results stay bit-identical to a serial session (the cost model
    // only picks which host kernel runs).
    //
    // The leak-freedom side of this claim (`Arc::strong_count` returning to
    // its pre-runtime value) lives in `tests/calibration_sharing.rs`: the
    // count is on the *process-global* calibration, so asserting it here
    // would race against sibling tests planning concurrently when this
    // binary runs with multiple test threads.
    let (plan, _) = plan_fixture();
    let Some(calibration) = plan.calibration() else {
        return; // DYNASPARSE_CALIBRATION=off
    };
    assert!(calibration.is_valid());
    let stream = request_stream(&plan, 6);
    let want = serial_reports(&plan, &[MappingStrategy::Dynamic], &stream);
    let runtime = ServeRuntime::start(Arc::clone(&plan), ServeConfig::default().workers(3));
    let results = runtime.serve_all(stream.iter().cloned());
    for (i, r) in results.into_iter().enumerate() {
        assert_reports_identical(&want[i], &r.unwrap(), &format!("calibrated request {i}"));
    }
    runtime.shutdown();
}
