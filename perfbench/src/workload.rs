//! The three workloads: their fixed constants, the seeded inputs they serve,
//! and each distinct input's fixed-kernel oracle result.
//!
//! The graph and the model of each workload are fixed (they are the
//! deployment); `--seed` draws the requests.  The program only ever sees the
//! generated inputs.

use dynasparse_graph::generators::{dense_features, sparse_features};
use dynasparse_graph::{Dataset, FeatureMatrix, Graph, GraphDataset, NeighborSampler};
use dynasparse_matrix::{CsrMatrix, DenseMatrix};
use dynasparse_model::{prepare_adjacencies, prune_model, GnnModel, KernelOp, ReferenceExecutor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Serve worker threads, sized for a 2-core host.
pub const WORKERS: usize = 2;
/// Requests coalesced into one `infer_batch` call (the runtime's default).
pub const MAX_BATCH: usize = 8;
/// Requests served before the measured window, as part of set-up.
pub const WARMUP: usize = 32;

/// Seed of each workload's fixed graph and model.
const DEPLOYMENT_SEED: u64 = 42;
/// Distinct feature matrices in a full-graph request pool.
const POOL: usize = 16;
/// Length of the fixed closed-loop request sequence before it repeats.
const SEQUENCE: usize = POOL * 256;
/// Per-hop fan-in of the ego-net sampler.
const FANOUTS: [usize; 2] = [25, 10];
/// GraphSAGE weight sparsity of `fullgraph_dense_pruned`.
const PRUNED_SPARSITY: f64 = 0.9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FullgraphCsr,
    EgonetOpen,
    FullgraphDensePruned,
}

/// How load is offered.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// `clients` callers, each sending its next request when the last returns.
    Closed { clients: usize },
    /// Poisson arrivals at a fixed rate, independent of completions.
    Open { rate_rps: f64 },
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::FullgraphCsr,
        Workload::EgonetOpen,
        Workload::FullgraphDensePruned,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::FullgraphCsr => "fullgraph_csr",
            Workload::EgonetOpen => "egonet_open",
            Workload::FullgraphDensePruned => "fullgraph_dense_pruned",
        }
    }

    pub fn load(self) -> Load {
        match self {
            Workload::FullgraphCsr | Workload::FullgraphDensePruned => Load::Closed { clients: 8 },
            Workload::EgonetOpen => Load::Open { rate_rps: 500.0 },
        }
    }

    /// The latency limit `slo_attainment` is measured against.
    pub fn latency_limit_ms(self) -> f64 {
        match self {
            Workload::FullgraphCsr => 40.0,
            Workload::EgonetOpen => 5.0,
            Workload::FullgraphDensePruned => 250.0,
        }
    }
}

/// Embeddings of one input under the fixed-kernel reference executor, plus
/// the work the model does on it, computed from kernel shapes and operand
/// densities.
#[derive(Debug, Clone)]
pub struct Oracle {
    pub embeddings: DenseMatrix,
    /// Expected useful multiply-accumulates: per kernel,
    /// `nnz(left) · nnz(right) / inner_dim` (uniform-sparsity estimate).
    pub macs: f64,
    /// Operand and result bytes at their smaller of dense and CSR encoding.
    pub bytes: f64,
}

impl Oracle {
    /// Runs `model` on `graph` with the fixed-kernel executor.
    pub fn compute(model: &Arc<GnnModel>, graph: &Graph, features: &FeatureMatrix) -> Oracle {
        let exec = ReferenceExecutor::from_prepared(
            Arc::clone(model),
            Arc::new(prepare_adjacencies(model, graph)),
        );
        let (mut macs, mut bytes) = (0.0, 0.0);
        let out = exec
            .forward_with(features, |_, _, spec, input, output| {
                let (rows, inner) = input.shape();
                let (right_nnz, right_bytes, right_rows) = match spec.op {
                    KernelOp::Aggregate { aggregator } => {
                        let adj = exec.adjacency(aggregator).expect("prepared adjacency");
                        (
                            adj.nnz(),
                            encoded_bytes(adj.rows(), adj.cols(), adj.nnz()),
                            rows,
                        )
                    }
                    KernelOp::Update { weight } => {
                        let w = &model.weights[weight];
                        (w.nnz(), encoded_bytes(w.rows(), w.cols(), w.nnz()), inner)
                    }
                };
                // Aggregate computes A·X (left = A, shared dimension = rows);
                // Update computes X·W (left = X, shared dimension = inner).
                macs += input.nnz() as f64 * right_nnz as f64 / right_rows.max(1) as f64;
                bytes += encoded_bytes(rows, inner, input.nnz())
                    + right_bytes
                    + encoded_bytes(output.num_vertices(), output.dim(), output.nnz());
            })
            .expect("oracle forward pass");
        Oracle {
            embeddings: out.to_dense(),
            macs,
            bytes,
        }
    }

    /// Whether `served` equals the oracle's embeddings bit for bit.
    pub fn matches(&self, served: &FeatureMatrix) -> bool {
        let (rows, cols) = (self.embeddings.rows(), self.embeddings.cols());
        if served.shape() != (rows, cols) {
            return false;
        }
        let served = served.to_dense();
        (0..rows).all(|r| {
            (0..cols).all(|c| served.get(r, c).to_bits() == self.embeddings.get(r, c).to_bits())
        })
    }
}

/// Bytes of a `rows × cols` operand with `nnz` non-zeros in the smaller of
/// its dense (4 B/value) and CSR (8 B/non-zero + 8 B/row) encodings.
fn encoded_bytes(rows: usize, cols: usize, nnz: usize) -> f64 {
    let dense = rows * cols * 4;
    let csr = nnz * 8 + (rows + 1) * 8;
    dense.min(csr) as f64
}

/// Mixes the run seed with a stream tag and an index.
fn mix(seed: u64, tag: u64, i: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed ^ tag.rotate_left(17) ^ i.wrapping_mul(0x9E37_79B9));
    rng.gen_range(0..u64::MAX)
}

/// `n` densities spaced evenly in log scale over `[lo, hi]`.
fn log_spaced(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| lo * (hi / lo).powf(i as f64 / (n - 1).max(1) as f64))
        .collect()
}

/// A seeded permutation of `0..n`.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        out.swap(i, rng.gen_range(0..=i));
    }
    out
}

/// Inputs of a full-graph workload: one resident graph, a pool of distinct
/// request feature matrices, and the fixed order they are requested in.
pub struct FullGraph {
    pub model: Arc<GnnModel>,
    pub dataset: GraphDataset,
    pub pool: Vec<FeatureMatrix>,
    /// One oracle per pool entry (empty until [`FullGraph::compute_oracles`]).
    pub oracles: Vec<Oracle>,
    /// Request `i` serves `pool[sequence[i % sequence.len()]]`; every
    /// consecutive run of `POOL` requests serves each pool entry once.
    pub sequence: Vec<usize>,
    pub encoding: &'static str,
}

impl FullGraph {
    pub fn generate(workload: Workload, seed: u64) -> FullGraph {
        let (dataset, model, pool, encoding) = match workload {
            Workload::FullgraphCsr => {
                // Full-scale Cora, GCN; CSR requests at 0.5–10% density plus
                // Cora's own features (1.27%).
                let dataset = Dataset::Cora.spec().generate(DEPLOYMENT_SEED);
                let (n, dim) = dataset.features.shape();
                let model = GnnModel::gcn(dim, 16, dataset.spec.num_classes, DEPLOYMENT_SEED);
                let mut pool: Vec<FeatureMatrix> = log_spaced(0.005, 0.10, POOL - 1)
                    .into_iter()
                    .enumerate()
                    .map(|(k, d)| sparse_features(n, dim, d, mix(seed, 1, k as u64)))
                    .collect();
                pool.push(FeatureMatrix::Sparse(CsrMatrix::from_dense(
                    &dataset.features.to_dense(),
                )));
                (dataset, model, pool, "csr")
            }
            Workload::FullgraphDensePruned => {
                // Quarter-scale Cora, GraphSAGE pruned to 90% weight
                // sparsity; dense-encoded requests at 1.27–30% density.
                let dataset = Dataset::Cora.spec().generate_scaled(DEPLOYMENT_SEED, 0.25);
                let (n, dim) = dataset.features.shape();
                let dense_model =
                    GnnModel::graphsage(dim, 16, dataset.spec.num_classes, DEPLOYMENT_SEED);
                let model = prune_model(&dense_model, PRUNED_SPARSITY);
                let pool = log_spaced(0.0127, 0.30, POOL)
                    .into_iter()
                    .enumerate()
                    .map(|(k, d)| dense_features(n, dim, d, mix(seed, 2, k as u64)))
                    .collect();
                (dataset, model, pool, "dense")
            }
            Workload::EgonetOpen => unreachable!("egonet_open serves subgraphs"),
        };
        let sequence = (0..SEQUENCE / POOL)
            .flat_map(|block| permutation(POOL, mix(seed, 3, block as u64)))
            .collect();
        FullGraph {
            model: Arc::new(model),
            dataset,
            pool,
            oracles: Vec::new(),
            sequence,
            encoding,
        }
    }

    pub fn compute_oracles(&mut self) {
        self.oracles = self
            .pool
            .iter()
            .map(|f| Oracle::compute(&self.model, &self.dataset.graph, f))
            .collect();
    }

    /// Pool index of request `i`.
    pub fn input_of(&self, i: usize) -> usize {
        self.sequence[i % self.sequence.len()]
    }

    pub fn describe(&self) -> String {
        let mut densities: Vec<f64> = self.pool.iter().map(FeatureMatrix::density).collect();
        densities.sort_by(f64::total_cmp);
        let list: Vec<String> = densities.iter().map(|d| format!("{:.4}", d)).collect();
        format!(
            "encoding={} vertices={} edges={} dim={} model={} weight_density={:.3} pool={} densities=[{}]",
            self.encoding,
            self.dataset.graph.num_vertices(),
            self.dataset.graph.num_edges(),
            self.dataset.features.dim(),
            self.model.kind.name(),
            self.model.weight_density(),
            self.pool.len(),
            list.join(",")
        )
    }
}

/// One per-request subgraph.
pub struct Subgraph {
    pub graph: Graph,
    pub features: FeatureMatrix,
}

/// Inputs of `egonet_open`: distinct 2-hop neighbourhoods of full Cora and
/// their Poisson arrival times.
pub struct Egonet {
    pub model: Arc<GnnModel>,
    pub warmup: Vec<Subgraph>,
    pub stream: Vec<Subgraph>,
    /// One oracle per stream request (empty until computed).
    pub oracles: Vec<Oracle>,
    /// Due time of stream request `i`, in seconds from the window start.
    pub arrivals_s: Vec<f64>,
    pub rate_rps: f64,
}

impl Egonet {
    /// Generates the warm-up and `requests` stream requests.
    pub fn generate(seed: u64, rate_rps: f64, requests: usize) -> Egonet {
        let dataset = Dataset::Cora.spec().generate(DEPLOYMENT_SEED);
        let model = GnnModel::gcn(
            dataset.features.dim(),
            16,
            dataset.spec.num_classes,
            DEPLOYMENT_SEED,
        );
        let features = FeatureMatrix::Sparse(CsrMatrix::from_dense(&dataset.features.to_dense()));
        let n = dataset.graph.num_vertices();
        let roots = permutation(n, mix(seed, 4, 0));
        // Request i is rooted at roots[i mod n]; each pass over the roots
        // samples with a fresh seed, so repeated roots draw new fan-ins.
        let sample = |i: usize, tag: u64| {
            let sampler = NeighborSampler::new(FANOUTS, mix(seed, tag, (i / n) as u64));
            let sub = sampler.sample(&dataset.graph, &[roots[i % n] as u32]);
            let features = sub.extract_features(&features);
            Subgraph {
                graph: sub.into_graph(),
                features,
            }
        };
        let warmup = (0..WARMUP).map(|i| sample(n - 1 - i, 5)).collect();
        let stream = (0..requests).map(|i| sample(i, 6)).collect();
        // Exponential gaps, rescaled so the last request is due exactly at
        // `requests / rate_rps`: every seed offers the same mean rate.
        let mut rng = StdRng::seed_from_u64(mix(seed, 7, 0));
        let mut t = 0.0;
        let mut arrivals_s: Vec<f64> = (0..requests)
            .map(|_| {
                t += -rng.gen_range(f64::EPSILON..1.0).ln();
                t
            })
            .collect();
        let scale = requests as f64 / rate_rps / t.max(f64::EPSILON);
        arrivals_s.iter_mut().for_each(|a| *a *= scale);
        Egonet {
            model: Arc::new(model),
            warmup,
            stream,
            oracles: Vec::new(),
            arrivals_s,
            rate_rps,
        }
    }

    pub fn compute_oracles(&mut self) {
        self.oracles = self
            .stream
            .iter()
            .map(|s| Oracle::compute(&self.model, &s.graph, &s.features))
            .collect();
    }

    pub fn describe(&self) -> String {
        let vertices: Vec<f64> = self
            .stream
            .iter()
            .map(|s| s.graph.num_vertices() as f64)
            .collect();
        let density: Vec<f64> = self.stream.iter().map(|s| s.features.density()).collect();
        format!(
            "encoding=csr requests={} rate_rps={} fanouts={:?} mean_subgraph_vertices={:.2} max_subgraph_vertices={} mean_feature_density={:.4} model={}",
            self.stream.len(),
            self.rate_rps,
            FANOUTS,
            crate::stats::mean(&vertices),
            vertices.iter().cloned().fold(0.0, f64::max),
            crate::stats::mean(&density),
            self.model.kind.name()
        )
    }
}
