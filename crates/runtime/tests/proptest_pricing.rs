//! Property-based tests of the pricing-cache key machinery: keys must be a
//! total, stable function of profile *content* — independent of how the
//! profile was built (fresh vs. refit into reused scratch) and of what the
//! scratch held before — and the density-bucket grid must preserve exact
//! zeros (Skip decisions) while bounding the distortion of everything else.

use dynasparse_matrix::{BlockGrid, DenseMatrix, DensityProfile};
use dynasparse_runtime::pricing::{bucket_nnz, density_bucket, quantize_profile_into, SKIP_BUCKET};
use dynasparse_runtime::{
    Analyzer, MappingStrategy, OperandProfiles, PricingCacheMode, PricingKey,
};
use proptest::prelude::*;

/// Strategy: a small dense matrix with a random zero-heavy value mix, so the
/// profiles cover empty, sparse and dense blocks.
fn dense_matrix(max_rows: usize, max_cols: usize) -> impl Strategy<Value = DenseMatrix> {
    (1..=max_rows, 1..=max_cols).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec(
            prop_oneof![
                3 => Just(0.0f32),
                2 => (-5.0f32..5.0).prop_filter("non-zero", |v| *v != 0.0),
            ],
            rows * cols,
        )
        .prop_map(move |data| DenseMatrix::from_row_major(rows, cols, data).unwrap())
    })
}

fn keys_for(profile: &DensityProfile, mode: PricingCacheMode) -> Vec<PricingKey> {
    MappingStrategy::paper_strategies()
        .iter()
        .map(|&s| PricingKey::base(11, 2, mode, profile).with_strategy(s))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Equal profile content gives equal keys regardless of construction
    /// path: a profile refit into scratch that previously held a *different*
    /// profile must key identically to a freshly built one.
    #[test]
    fn keys_depend_on_content_not_construction(
        m in dense_matrix(24, 24),
        decoy in dense_matrix(24, 24),
        block in 1usize..=8,
    ) {
        let grid = BlockGrid::new(m.rows(), m.cols(), block, block);
        let fresh = DensityProfile::of_dense(&m, &grid);

        let decoy_grid = BlockGrid::new(decoy.rows(), decoy.cols(), block, block);
        let mut scratch = DensityProfile::of_dense(&decoy, &decoy_grid);
        scratch.refit_dense(&m, &grid);

        for mode in [PricingCacheMode::Exact, PricingCacheMode::Bucketed] {
            prop_assert_eq!(keys_for(&fresh, mode), keys_for(&scratch, mode));
        }
        // Strategies must stay separated (total order of distinct tags).
        let dynamic = PricingKey::base(11, 2, PricingCacheMode::Exact, &fresh)
            .with_strategy(MappingStrategy::Dynamic);
        let s1 = PricingKey::base(11, 2, PricingCacheMode::Exact, &fresh)
            .with_strategy(MappingStrategy::Static1);
        prop_assert_ne!(dynamic, s1);
    }

    /// `density_bucket` is total — no occupancy, however degenerate
    /// (empty, over-full, zero-area), may panic or produce a non-Skip bucket
    /// for an empty block.
    #[test]
    fn buckets_are_total_and_zero_preserving(
        nnz in 0usize..=40_960,
        area in 0usize..=4_096,
    ) {
        let b = density_bucket(nnz, area);
        if nnz == 0 || area == 0 {
            prop_assert_eq!(b, SKIP_BUCKET);
            prop_assert_eq!(bucket_nnz(b, area), 0);
        } else {
            prop_assert_ne!(b, SKIP_BUCKET);
            let rep = bucket_nnz(b, area);
            prop_assert!(rep >= 1 && rep <= area);
        }
    }

    /// The bucket representative distorts a real occupancy by at most the
    /// advertised quarter-octave factor (plus integer rounding).
    #[test]
    fn bucket_distortion_stays_bounded(
        area in 1usize..=4_096,
        frac in 0.0f64..=1.0,
    ) {
        let nnz = ((frac * area as f64) as usize).clamp(1, area);
        let rep = bucket_nnz(density_bucket(nnz, area), area);
        let ratio = rep as f64 / nnz as f64;
        let slack = 1.0 / nnz as f64;
        let bound = dynasparse_runtime::pricing::BUCKET_MAX_RATIO;
        prop_assert!(
            ratio <= bound + slack && ratio >= 1.0 / bound - slack,
            "area {} nnz {} rep {} ratio {}", area, nnz, rep, ratio
        );
    }

    /// Quantization snaps blocks to representatives without ever turning a
    /// non-empty block empty (or vice versa), and profiles that share every
    /// block bucket quantize to the same representative profile.
    #[test]
    fn quantization_preserves_emptiness_and_bucket_classes(
        m in dense_matrix(24, 24),
        block in 1usize..=8,
    ) {
        let grid = BlockGrid::new(m.rows(), m.cols(), block, block);
        let profile = DensityProfile::of_dense(&m, &grid);
        let mut quantized = DensityProfile::of_dense(&m, &grid);
        quantize_profile_into(&profile, &mut quantized);
        prop_assert_eq!(profile.shape(), quantized.shape());
        prop_assert_eq!(profile.grid_shape(), quantized.grid_shape());
        let (br, bc) = profile.block_shape();
        let area = br * bc;
        for (&orig, &snap) in profile
            .block_counts()
            .iter()
            .zip(quantized.block_counts())
        {
            prop_assert_eq!(orig == 0, snap == 0, "emptiness must be preserved");
            prop_assert_eq!(snap, bucket_nnz(density_bucket(orig, area), area));
        }
    }
}

/// Bucket-interior exactness, end to end through the Analyzer: a feature
/// profile whose every block sits exactly at its bucket's representative
/// occupancy is a fixed point of quantization, so the bucketed cache prices
/// it bit-identically to an uncached analysis — for every paper strategy.
/// (Representatives are guaranteed fixed points only over power-of-two block
/// areas, which the compiler's subfiber partition provides.)
#[test]
fn analysis_is_exact_at_bucket_representatives() {
    use dynasparse_accel::{AcceleratorConfig, ComputationCore};
    use dynasparse_compiler::{compile, CompilerConfig, KernelKind};
    use dynasparse_graph::Dataset;
    use dynasparse_model::GnnModel;

    let ds = Dataset::Cora.spec().generate_scaled(7, 0.3);
    let model = GnnModel::gcn(ds.features.dim(), 16, 7, 3);
    let program = compile(&model, &ds, &CompilerConfig::default()).program;
    let spec = program.partition;
    let v = ds.graph.num_vertices();
    let f = ds.features.dim();
    let grid = spec.subfiber_grid(v, f);
    let area = grid.block_rows() * grid.block_cols();
    assert!(
        area.is_power_of_two(),
        "subfiber blocks must have power-of-two area for exact representatives"
    );

    // Every block pinned to a representative occupancy, cycling a spread of
    // buckets (including Skip) across the grid.
    let buckets: [u8; 8] = [SKIP_BUCKET, 1, 2, 3, 5, 8, 13, 21];
    let cells = grid.grid_rows() * grid.grid_cols();
    let counts: Vec<usize> = (0..cells)
        .map(|i| bucket_nnz(buckets[i % buckets.len()], area))
        .collect();
    let profile = DensityProfile::from_block_nnz(v, f, &grid, counts.clone());
    let mut quantized = DensityProfile::from_block_nnz(v, f, &grid, counts);
    quantize_profile_into(&profile, &mut quantized);
    assert_eq!(
        profile.block_counts(),
        quantized.block_counts(),
        "representative occupancies must be fixed points of quantization"
    );

    let kernel = program
        .kernels
        .iter()
        .find(|k| matches!(k.ir.kind, KernelKind::Update))
        .expect("the compiled GCN must contain an Update kernel");
    for strategy in MappingStrategy::paper_strategies() {
        let fresh = Analyzer::new(ComputationCore::new(AcceleratorConfig::default()), strategy)
            .analyze_kernel(
                kernel,
                &OperandProfiles {
                    adjacency: &program.static_sparsity.adjacency,
                    weights: &program.static_sparsity.weights,
                    features: &profile,
                },
            );
        let cached = Analyzer::new(ComputationCore::new(AcceleratorConfig::default()), strategy)
            .analyze_kernel(
                kernel,
                &OperandProfiles {
                    adjacency: &program.static_sparsity.adjacency,
                    weights: &program.static_sparsity.weights,
                    features: &quantized,
                },
            );
        assert_eq!(
            fresh, cached,
            "{strategy:?}: pricing at a bucket representative must be exact"
        );
    }
}
