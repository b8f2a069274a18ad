//! The kernel-span flight recorder and the predicted-vs-measured drift
//! tracker.

use crate::ids::GaugeId;
use crate::registry::Registry;

/// The host primitive a dispatch actually executed. Mirrors the matrix
/// crate's `HostPrimitive` without depending on it (this crate sits below
/// everything else in the workspace).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanPrimitive {
    /// Dense-dense GEMM.
    Gemm,
    /// Sparse-dense SpDMM.
    SpDmm,
    /// Gustavson sparse-sparse SpGEMM.
    Spmm,
    /// Empty product, skipped outright.
    Skip,
}

impl SpanPrimitive {
    /// A short stable label for exposition.
    pub const fn label(self) -> &'static str {
        match self {
            SpanPrimitive::Gemm => "gemm",
            SpanPrimitive::SpDmm => "spdmm",
            SpanPrimitive::Spmm => "spmm",
            SpanPrimitive::Skip => "skip",
        }
    }
}

/// One kernel dispatch, as observed by the dispatcher: what ran, on what
/// shape and densities, what the cost model predicted and what it actually
/// cost. `Copy` and fixed-size so ring writes never allocate.
#[derive(Debug, Clone, Copy)]
pub struct KernelSpan {
    /// The session-local request ordinal the span belongs to.
    pub request: u64,
    /// Model layer index.
    pub layer: u16,
    /// Kernel index within the layer (aggregate/update position).
    pub kernel: u16,
    /// Row-block index within the kernel on the block-granular dispatch
    /// path, or [`KernelSpan::WHOLE_KERNEL`] for a whole-kernel span.
    pub block: u16,
    /// The primitive that actually executed.
    pub primitive: SpanPrimitive,
    /// Product rows (`m` of `m x n x d`).
    pub m: u32,
    /// Product inner dimension (`n`).
    pub n: u32,
    /// Product columns (`d`).
    pub d: u32,
    /// Density of the left operand as dispatched (stored representation:
    /// dense operands report their cached density, 1.0 when unknown).
    pub alpha_x: f32,
    /// Density of the right operand as dispatched.
    pub alpha_y: f32,
    /// Cost-model prediction in milliseconds (`NaN` when the dispatcher has
    /// no calibrated model, e.g. Table IV regions).
    pub predicted_ms: f32,
    /// Measured wall time of the dispatch in milliseconds.
    pub measured_ms: f32,
}

impl KernelSpan {
    /// The `block` value of a span covering the whole kernel (the legacy
    /// whole-kernel dispatch, or the roll-up span of a block-granular
    /// dispatch).
    pub const WHOLE_KERNEL: u16 = u16::MAX;

    /// Whether this span covers one row block rather than the whole kernel.
    pub fn is_block(&self) -> bool {
        self.block != Self::WHOLE_KERNEL
    }
}

/// A bounded ring of [`KernelSpan`]s owned by one session.
///
/// The ring is preallocated at construction and overwritten in place once
/// full, so steady-state pushes are allocation-free; `recorded()` keeps the
/// total ever pushed so overflow is visible.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Vec<KernelSpan>,
    head: usize,
    recorded: u64,
}

impl FlightRecorder {
    /// Default ring capacity: enough for several requests of a deep model
    /// without growing a session footprint past a few tens of KiB.
    pub const DEFAULT_CAPACITY: usize = 256;

    /// A recorder holding at most `capacity` spans (clamped to at least 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            ring: Vec::with_capacity(capacity.max(1)),
            head: 0,
            recorded: 0,
        }
    }

    /// A recorder that retains nothing (used below `trace` level).
    pub fn disabled() -> FlightRecorder {
        FlightRecorder {
            ring: Vec::new(),
            head: 0,
            recorded: 0,
        }
    }

    /// Whether this recorder retains spans.
    pub fn is_enabled(&self) -> bool {
        self.ring.capacity() > 0
    }

    /// Pushes a span, overwriting the oldest once the ring is full.
    pub fn push(&mut self, span: KernelSpan) {
        let cap = self.ring.capacity();
        if cap == 0 {
            return;
        }
        if self.ring.len() < cap {
            self.ring.push(span);
        } else {
            self.ring[self.head] = span;
        }
        self.head = (self.head + 1) % cap;
        self.recorded += 1;
    }

    /// Spans currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no spans are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total spans ever pushed (retained + overwritten).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Retained spans, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &KernelSpan> {
        let split = if self.ring.len() < self.ring.capacity() {
            0
        } else {
            self.head
        };
        self.ring[split..].iter().chain(self.ring[..split].iter())
    }

    /// The `n` slowest retained spans, slowest first (allocates; reader
    /// side only).
    pub fn slowest(&self, n: usize) -> Vec<KernelSpan> {
        let mut spans: Vec<KernelSpan> = self.ring.clone();
        spans.sort_by(|a, b| {
            b.measured_ms
                .partial_cmp(&a.measured_ms)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        spans.truncate(n);
        spans
    }

    /// Drops every retained span (capacity is kept).
    pub fn clear(&mut self) {
        self.ring.clear();
        self.head = 0;
    }
}

/// Folds measured-vs-predicted kernel cost ratios into per-primitive EWMAs:
/// the session's own (which drives that session's online recalibration)
/// and the registry's drift gauges (the runtime-wide view scrapes read).
///
/// The two differ once several sessions share a registry: the gauges mix
/// every session's samples, while each session's fit is only described by
/// its own.  Three `f64`s, so observing never allocates.
#[derive(Debug, Clone, Copy)]
pub struct DriftTracker {
    alpha: f64,
    /// Per-primitive EWMA in `[Gemm, SpDmm, Spmm]` order; `NaN` until the
    /// primitive's first observation.
    ewma: [f64; 3],
}

/// The tracked primitive's slot in [`DriftTracker::ewma`] and its registry
/// gauge; `None` for skipped products, which have no cost to drift.
fn drift_slot(primitive: SpanPrimitive) -> Option<(usize, GaugeId)> {
    match primitive {
        SpanPrimitive::Gemm => Some((0, GaugeId::DriftGemm)),
        SpanPrimitive::SpDmm => Some((1, GaugeId::DriftSpdmm)),
        SpanPrimitive::Spmm => Some((2, GaugeId::DriftSpmm)),
        SpanPrimitive::Skip => None,
    }
}

impl DriftTracker {
    /// Default smoothing factor: a ~20-sample memory, long enough to ride
    /// out scheduler noise, short enough to see a stale fit within a batch.
    pub const DEFAULT_ALPHA: f64 = 0.05;

    /// A tracker with smoothing factor `alpha`.
    pub fn new(alpha: f64) -> DriftTracker {
        DriftTracker {
            alpha,
            ewma: [f64::NAN; 3],
        }
    }

    /// The smoothing factor.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Folds one observation into this tracker's EWMA and the registry's
    /// drift gauge for `primitive`. Skipped kernels, region-policy
    /// dispatches (`NaN` prediction) and degenerate predictions contribute
    /// nothing.
    pub fn observe(
        &mut self,
        registry: &Registry,
        primitive: SpanPrimitive,
        predicted_ms: f64,
        measured_ms: f64,
    ) {
        let Some((slot, gauge)) = drift_slot(primitive) else {
            return;
        };
        if !predicted_ms.is_finite() || predicted_ms <= 0.0 || !measured_ms.is_finite() {
            return;
        }
        let sample = measured_ms / predicted_ms;
        if !sample.is_finite() {
            return;
        }
        let old = self.ewma[slot];
        self.ewma[slot] = if old.is_nan() {
            sample
        } else {
            old * (1.0 - self.alpha) + sample * self.alpha
        };
        registry.gauge_ewma(gauge, sample, self.alpha);
    }

    /// This tracker's measured/predicted EWMA for `primitive` (`NaN` before
    /// its first observation and for [`SpanPrimitive::Skip`]).
    pub fn ratio(&self, primitive: SpanPrimitive) -> f64 {
        drift_slot(primitive).map_or(f64::NAN, |(slot, _)| self.ewma[slot])
    }

    /// Restarts `primitive`'s EWMA at the healthy `1.0`, as after a
    /// recalibration that rescaled its fit by the observed ratio.  The
    /// registry gauge is left alone: other sessions feed it too.
    pub fn reset(&mut self, primitive: SpanPrimitive) {
        if let Some((slot, _)) = drift_slot(primitive) {
            self.ewma[slot] = 1.0;
        }
    }
}

impl Default for DriftTracker {
    fn default() -> DriftTracker {
        DriftTracker::new(DriftTracker::DEFAULT_ALPHA)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TelemetryLevel;

    fn span(measured_ms: f32) -> KernelSpan {
        KernelSpan {
            request: 0,
            layer: 0,
            kernel: 0,
            block: KernelSpan::WHOLE_KERNEL,
            primitive: SpanPrimitive::Gemm,
            m: 8,
            n: 8,
            d: 8,
            alpha_x: 1.0,
            alpha_y: 1.0,
            predicted_ms: f32::NAN,
            measured_ms,
        }
    }

    #[test]
    fn ring_overwrites_oldest_and_keeps_total() {
        let mut rec = FlightRecorder::new(4);
        for i in 0..6 {
            rec.push(span(i as f32));
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.recorded(), 6);
        let order: Vec<f32> = rec.spans().map(|s| s.measured_ms).collect();
        assert_eq!(order, vec![2.0, 3.0, 4.0, 5.0]);
        let slowest: Vec<f32> = rec.slowest(2).iter().map(|s| s.measured_ms).collect();
        assert_eq!(slowest, vec![5.0, 4.0]);
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        let mut rec = FlightRecorder::disabled();
        rec.push(span(1.0));
        assert!(rec.is_empty());
        assert_eq!(rec.recorded(), 0);
        assert!(!rec.is_enabled());
    }

    #[test]
    fn drift_skips_unpredictable_observations() {
        let registry = Registry::new(TelemetryLevel::Counters);
        let mut drift = DriftTracker::default();
        drift.observe(&registry, SpanPrimitive::Skip, 1.0, 1.0);
        drift.observe(&registry, SpanPrimitive::Gemm, f64::NAN, 1.0);
        drift.observe(&registry, SpanPrimitive::Gemm, 0.0, 1.0);
        assert!(registry.gauge(GaugeId::DriftGemm).is_nan());
        assert!(drift.ratio(SpanPrimitive::Gemm).is_nan());
        drift.observe(&registry, SpanPrimitive::Gemm, 2.0, 3.0);
        assert!((registry.gauge(GaugeId::DriftGemm) - 1.5).abs() < 1e-12);
        assert!((drift.ratio(SpanPrimitive::Gemm) - 1.5).abs() < 1e-12);
        assert!(drift.ratio(SpanPrimitive::Skip).is_nan());
    }

    #[test]
    fn session_ewma_is_private_and_resets_alone() {
        let registry = Registry::new(TelemetryLevel::Counters);
        let (mut a, mut b) = (DriftTracker::new(0.5), DriftTracker::new(0.5));
        a.observe(&registry, SpanPrimitive::Spmm, 1.0, 4.0);
        b.observe(&registry, SpanPrimitive::Spmm, 1.0, 2.0);
        // The gauge mixes both sessions; each tracker keeps its own.
        assert!((registry.gauge(GaugeId::DriftSpmm) - 3.0).abs() < 1e-12);
        assert!((a.ratio(SpanPrimitive::Spmm) - 4.0).abs() < 1e-12);
        assert!((b.ratio(SpanPrimitive::Spmm) - 2.0).abs() < 1e-12);
        a.reset(SpanPrimitive::Spmm);
        assert_eq!(a.ratio(SpanPrimitive::Spmm), 1.0);
        assert!((b.ratio(SpanPrimitive::Spmm) - 2.0).abs() < 1e-12);
        assert!((registry.gauge(GaugeId::DriftSpmm) - 3.0).abs() < 1e-12);
    }
}
