//! Drift-triggered recalibration must not invalidate the pricing cache.
//!
//! An online recalibration rescales the *host* fit, which steers host
//! dispatch.  Pricing runs the Analyzer over the *modeled accelerator* and
//! never reads that fit, so the pricing key carries no calibration: after a
//! recalibration every resident entry keeps hitting, and every priced
//! quantity in the reports stays exactly what it was.  (Topology
//! invalidation through the statics fingerprint is covered in
//! `tests/pricing_cache.rs`.)
//!
//! This lives in its **own test binary**, like `telemetry_drift.rs` and for
//! the same reason: it manufactures a stale `DYNASPARSE_CALIBRATION` fit,
//! and the loaded calibration is a process-wide `OnceLock` — sibling test
//! binaries must not inherit it.

use dynasparse::{
    EngineOptions, HostExecutionOptions, InferenceReport, MappingStrategy, Planner,
    PricingCacheMode, Registry, TelemetryLevel,
};
use dynasparse_graph::generators::dense_features;
use dynasparse_graph::{Dataset, FeatureMatrix};
use dynasparse_matrix::HostCalibration;
use dynasparse_model::{GnnModel, GnnModelKind};
use dynasparse_telemetry::CounterId;
use std::sync::Arc;

/// Persists the 1e6x-inflated reference fit and points
/// `DYNASPARSE_CALIBRATION` at it (same fixture as `telemetry_drift.rs`,
/// separate file so parallel binaries never race on the JSON).
fn install_stale_calibration() {
    let mut stale = HostCalibration::reference();
    for fit in [&mut stale.gemm, &mut stale.spdmm, &mut stale.spmm] {
        fit.work *= 1e6;
        fit.output *= 1e6;
        fit.per_row *= 1e6;
    }
    assert!(stale.is_valid(), "the stale fit must still parse as valid");
    let path = std::env::temp_dir().join("dynasparse_stale_pricing_calibration.json");
    let path = path.to_str().expect("utf-8 temp path").to_string();
    stale.save(&path).expect("persist the stale fit");
    std::env::set_var("DYNASPARSE_CALIBRATION", &path);
}

fn fixture() -> (dynasparse_graph::GraphDataset, GnnModel) {
    let ds = Dataset::Cora.spec().generate_scaled(11, 0.12);
    let model = GnnModel::standard(
        GnnModelKind::Gcn,
        ds.features.dim(),
        16,
        ds.spec.num_classes,
        3,
    );
    (ds, model)
}

/// A report's every field, rendered bit-exactly (`f64`'s `Debug` output
/// round-trips), with two exceptions: `predicted_kernel_ms` is the host
/// backend's prediction from the session's current fit, which recalibration
/// is meant to change, and each run's `end_to_end_ms` adds its plan's
/// measured compile time (its per-request terms, data movement and latency,
/// stay in).
fn priced_fields(report: &InferenceReport) -> String {
    let mut report = report.clone();
    report.predicted_kernel_ms = 0.0;
    for run in &mut report.runs {
        run.end_to_end_ms = 0.0;
    }
    format!("{report:?}")
}

/// Engine options with the given cache mode and recalibration switch.
fn options(mode: PricingCacheMode, recalibrate: bool) -> EngineOptions {
    EngineOptions::builder()
        .host(HostExecutionOptions {
            recalibrate,
            pricing_cache: mode,
            ..Default::default()
        })
        .build()
}

/// Serves `rounds` passes over `requests` through a fresh session of
/// `options`; returns every report, the session's registry and its miss
/// count after the first pass.
fn serve(
    options: EngineOptions,
    requests: &[FeatureMatrix],
    rounds: usize,
) -> (Vec<InferenceReport>, Arc<Registry>, u64) {
    let (ds, model) = fixture();
    let plan = Planner::new(options).plan(&model, &ds).unwrap();
    let registry = Arc::new(Registry::new(TelemetryLevel::Counters));
    let mut session = plan.session(&MappingStrategy::paper_strategies());
    session.set_telemetry(Arc::clone(&registry));
    let mut reports = Vec::with_capacity(rounds * requests.len());
    let mut first_pass_misses = 0;
    for round in 0..rounds {
        for request in requests {
            reports.push(session.infer(request).unwrap());
        }
        if round == 0 {
            first_pass_misses = registry.counter(CounterId::PricingMiss);
        }
    }
    (reports, registry, first_pass_misses)
}

#[test]
fn recalibration_keeps_the_cache_and_its_reports() {
    install_stale_calibration();
    let (ds, _) = fixture();
    let (v, f) = (ds.features.num_vertices(), ds.features.dim());
    let requests = [
        ds.features.clone(),
        dense_features(v, f, 0.05, 1),
        dense_features(v, f, 0.4, 2),
    ];
    const ROUNDS: usize = 6;

    // Under the 1e6x-stale fit every recalibrating session repairs its fit
    // after its first request.  The pricing key carries no calibration, so
    // the repair must neither re-miss nor change any priced quantity.
    for mode in [PricingCacheMode::Exact, PricingCacheMode::Bucketed] {
        let (cached, registry, first_pass) = serve(options(mode, true), &requests, ROUNDS);
        assert!(
            registry.counter(CounterId::Recalibrations) > 0,
            "{mode:?}: a 1e6x-stale fit must trigger online recalibration"
        );
        assert!(first_pass > 0, "{mode:?}: a cold cache must miss");
        assert_eq!(
            registry.counter(CounterId::PricingMiss),
            first_pass,
            "{mode:?}: repeated requests must never miss after their first pass"
        );
        assert!(registry.counter(CounterId::PricingHit) > 0, "{mode:?}");

        // Exact-mode pricing is bit-identical to uncached pricing; bucketed
        // pricing is whatever the same cache reports with the fit pinned.
        let reference_options = match mode {
            PricingCacheMode::Exact => options(PricingCacheMode::Off, true),
            _ => options(mode, false),
        };
        let (reference, _, _) = serve(reference_options, &requests, ROUNDS);
        for (i, (c, r)) in cached.iter().zip(&reference).enumerate() {
            assert!(
                priced_fields(c) == priced_fields(r),
                "{mode:?} request {i}: report differs from the reference"
            );
        }
    }
}

#[test]
fn pinned_calibration_never_invalidates() {
    install_stale_calibration();
    let (ds, model) = fixture();

    // Control: recalibration pinned off.  However stale the fit, every
    // repeat is a pure hit.
    let plan = Planner::new(
        EngineOptions::builder()
            .host(HostExecutionOptions {
                recalibrate: false,
                ..Default::default()
            })
            .build(),
    )
    .plan(&model, &ds)
    .unwrap();
    let registry = Arc::new(Registry::new(TelemetryLevel::Counters));
    let mut session = plan.session(&[MappingStrategy::Dynamic]);
    session.set_telemetry(Arc::clone(&registry));

    session.infer(&ds.features).unwrap();
    let misses = registry.counter(CounterId::PricingMiss);
    for _ in 0..5 {
        session.infer(&ds.features).unwrap();
    }
    assert_eq!(
        registry.counter(CounterId::PricingMiss),
        misses,
        "with the fit pinned, repeats must never re-miss"
    );
    assert_eq!(
        registry.counter(CounterId::PricingHit),
        5 * misses,
        "every kernel-strategy lookup must hit on each of the 5 repeats"
    );
    assert_eq!(registry.counter(CounterId::Recalibrations), 0);
}
