//! Model building shared by the workloads, and the per-family kernel table:
//! every registered kernel family, per layer, timed on the host and priced
//! on the modelled V100, at the served shapes and at the BERT shapes.

use crate::metrics::{median, Values};
use crate::trace::Tracer;
use std::time::{Duration, Instant};
use tilewise::{AutoPlanner, KernelRegistry, TileWiseMatrix};
use tw_models::RequestGenerator;
use tw_pruning::{tw, ImportanceScores, SparsityTarget, TileWiseConfig};
use tw_tensor::batch::stack_payloads;
use tw_tensor::Matrix;

/// A model shape and the batch size its workload runs it at.
pub struct Shape {
    /// Metric-name prefix.
    pub label: &'static str,
    /// Activation dimensions: `dims[i] x dims[i + 1]` is layer `i`.
    pub dims: &'static [usize],
    pub sparsity: f64,
    pub granularity: usize,
    pub batch: usize,
}

/// The served model: two layers, batches of at most 8.
pub const SERVED: Shape =
    Shape { label: "served", dims: &[192, 192, 96], sparsity: 0.75, granularity: 32, batch: 8 };

/// A BERT-base encoder chain at the paper's setting (75%, G = 128), one
/// 128-token sequence per call.
pub const BERT: Shape = Shape {
    label: "bert",
    dims: &[768, 768, 3072, 768],
    sparsity: 0.75,
    granularity: 128,
    batch: 128,
};

/// Prunes a random chain of `shape` tile-wise.  Weight generation is
/// outside the `pruning.prune` spans; scoring, pruning and compaction are
/// inside.
pub fn prune_chain(shape: &Shape, seed: u64, tracer: &mut Tracer) -> Vec<TileWiseMatrix> {
    let mut tiles = Vec::with_capacity(shape.dims.len() - 1);
    for (i, pair) in shape.dims.windows(2).enumerate() {
        let weights = Matrix::random_normal(pair[0], pair[1], 1.0, seed.wrapping_add(i as u64));
        let tile = tracer.time("pruning.prune", None, None, || {
            let scores = ImportanceScores::magnitude(&weights);
            let mask = tw::prune(
                &scores,
                &TileWiseConfig::with_granularity(shape.granularity),
                SparsityTarget::new(shape.sparsity),
            );
            TileWiseMatrix::from_mask(&weights, &mask)
        });
        tiles.push(tile);
    }
    tiles
}

/// `batch` payload rows of width `dim` from the seeded request generator.
pub fn payload_batch(dim: usize, batch: usize, seed: u64) -> Matrix {
    stack_payloads(&RequestGenerator::new(dim, 1.0, seed).payloads(batch))
}

/// One cell of the family table.
pub struct FamilyCell {
    pub layer: usize,
    pub family: &'static str,
    /// Median host time of one `forward_batch` call.
    pub host_us: f64,
    /// The cost model's price of the same call.
    pub modelled_us: f64,
    pub resident_kb: f64,
}

/// Each cell runs at least this many timed calls...
const MIN_CALLS: usize = 5;
/// ...and for at least this long, unless one call already takes longer
/// than `MAX_CELL`: then it stops after `MIN_CALLS_SLOW` calls.
const MIN_CELL: Duration = Duration::from_millis(150);
const MAX_CELL: Duration = Duration::from_millis(1500);
const MIN_CALLS_SLOW: usize = 2;

/// Times and prices every registered family on every layer of `tiles`.
pub fn family_table(
    shape: &Shape,
    tiles: &[TileWiseMatrix],
    seed: u64,
    tracer: &mut Tracer,
) -> Vec<FamilyCell> {
    let registry = KernelRegistry::standard();
    let planner = AutoPlanner::v100(shape.batch);
    let mut cells = Vec::new();
    for (layer, tile) in tiles.iter().enumerate() {
        let input = payload_batch(tile.k(), shape.batch, seed ^ (0x5eed + layer as u64));
        for family in registry.names() {
            let label = format!("{}.L{layer}.{family}", shape.label);
            let kernel = registry.build(family, tile).expect("registered family builds");
            let start = Instant::now();
            let modelled_s = planner.price(tile.k(), tile.n(), &kernel.execution());
            let id = tracer.record("planner.price", start, Instant::now(), None, None);
            tracer.label(id, &label);
            std::hint::black_box(kernel.forward_batch(&input));
            let mut calls = Vec::new();
            let cell_start = Instant::now();
            loop {
                let t0 = Instant::now();
                std::hint::black_box(kernel.forward_batch(std::hint::black_box(&input)));
                let t1 = Instant::now();
                let id = tracer.record("kernels.forward_batch", t0, t1, None, None);
                tracer.label(id, &label);
                calls.push((t1 - t0).as_secs_f64());
                let spent = cell_start.elapsed();
                if (calls.len() >= MIN_CALLS && spent >= MIN_CELL)
                    || (calls.len() >= MIN_CALLS_SLOW && spent >= MAX_CELL)
                {
                    break;
                }
            }
            cells.push(FamilyCell {
                layer,
                family,
                host_us: median(&mut calls) * 1e6,
                modelled_us: modelled_s * 1e6,
                resident_kb: kernel.resident_bytes() as f64 / 1024.0,
            });
        }
    }
    cells
}

/// The table as `planner.*.modelled_us`, `kernels.*.host_us` and
/// `kernels.*.resident_kb` metrics.
pub fn table_metrics(shape: &Shape, cells: &[FamilyCell]) -> Values {
    let mut out = Values::new();
    for c in cells {
        let cell = format!("{}.L{}.{}", shape.label, c.layer, c.family);
        out.insert(format!("planner.{cell}.modelled_us"), c.modelled_us);
        out.insert(format!("kernels.{cell}.host_us"), c.host_us);
        out.insert(format!("kernels.{cell}.resident_kb"), c.resident_kb);
    }
    out
}

/// `(host regret, useful GFLOP/s)` of the bound plan `plan` over `tiles`:
/// the plan's host time over the fastest family's on every layer, and the
/// FLOPs of the kept weights at the shape's batch over the plan's host time.
pub fn plan_efficiency(
    shape: &Shape,
    tiles: &[TileWiseMatrix],
    plan: &[&str],
    cells: &[FamilyCell],
) -> (f64, f64) {
    let mut bound_s = 0.0;
    let mut fastest_s = 0.0;
    let mut flops = 0.0;
    for (layer, (tile, family)) in tiles.iter().zip(plan).enumerate() {
        let row: Vec<&FamilyCell> = cells.iter().filter(|c| c.layer == layer).collect();
        let bound = row.iter().find(|c| c.family == *family).expect("bound family is registered");
        bound_s += bound.host_us * 1e-6;
        fastest_s += row.iter().map(|c| c.host_us).fold(f64::INFINITY, f64::min) * 1e-6;
        flops += 2.0 * shape.batch as f64 * tile.kept_elements() as f64;
    }
    (bound_s / fastest_s, flops / bound_s / 1e9)
}
