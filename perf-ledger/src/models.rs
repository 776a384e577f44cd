//! The two served models, the harness's own Conv/Central split of them
//! (built from public fields, so the serial reference shares no private
//! code with the runtime it checks), and the seeded image pools.

use crate::spec::{ModelKind, GRID};
use adcnn_core::compress::Quantizer;
use adcnn_core::fdsp::TileGrid;
use adcnn_core::ClippedRelu;
use adcnn_nn::layer::QuantizeSte;
use adcnn_nn::{Block, Layer, Network};
use adcnn_retrain::PartitionedModel;
use adcnn_runtime::RemoteModelSpec;
use adcnn_tensor::conv::Conv2dParams;
use adcnn_tensor::pool::Pool2dParams;
use adcnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Weights are the program, not the traffic: one fixed seed for every run.
pub const MODEL_SEED: u64 = 0xADC0_2020;
/// Classifier width of the ShapesCNN workloads.
const SHAPES_CLASSES: usize = 6;
/// Classifier width of the VGG workload.
const VGG_CLASSES: usize = 10;

pub fn grid() -> TileGrid {
    TileGrid::new(GRID, GRID)
}

/// The spec both ends of a socket rebuild ShapesCNN from; `build()` of it is
/// also what the in-process ShapesCNN workloads serve.
pub fn shapes_spec() -> RemoteModelSpec {
    RemoteModelSpec::paper_default(SHAPES_CLASSES, MODEL_SEED, grid())
}

/// VGG16 blocks 1–2 as the separable prefix (conv 3→64, 64→64, pool,
/// 64→128, 128→128, pool; ReLU fused, no BN) on 3×64×64, `[0,2]` clipped
/// ReLU + 4-bit quantizer at the boundary, and a small Central suffix
/// (pool · conv 128→128 · GAP · linear→10). The im2col GEMMs of a 32×32
/// tile have VGG16's real `(M, K)`: (64, 27), (64, 576), (128, 576),
/// (128, 1152).
fn vgg_prefix_model() -> PartitionedModel {
    let mut rng = StdRng::seed_from_u64(MODEL_SEED);
    let same = Conv2dParams::same(3);
    let pool = Layer::MaxPool(Pool2dParams::non_overlapping(2));
    let net = Network::new(vec![
        Block::Seq(vec![Layer::conv2d(3, 64, 3, same, &mut rng), Layer::Relu]),
        Block::Seq(vec![Layer::conv2d(64, 64, 3, same, &mut rng), Layer::Relu, pool.clone()]),
        Block::Seq(vec![Layer::conv2d(64, 128, 3, same, &mut rng), Layer::Relu]),
        Block::Seq(vec![Layer::conv2d(128, 128, 3, same, &mut rng), Layer::Relu, pool.clone()]),
        Block::Seq(vec![
            pool,
            Layer::conv2d(128, 128, 3, same, &mut rng),
            Layer::Relu,
            Layer::GlobalAvgPool,
            Layer::linear(128, VGG_CLASSES, &mut rng),
        ]),
    ]);
    let crelu = ClippedRelu::new(0.0, 2.0);
    PartitionedModel {
        net,
        prefix: 4,
        grid: grid(),
        boundary_crelu: Some(crelu),
        boundary_quant: Some(QuantizeSte::new(4, crelu.range())),
        input: (3, 64, 64),
        classes: VGG_CLASSES,
    }
}

/// Build a workload's model. Deterministic: every call yields bit-identical
/// weights, which is what lets the harness hold its own copy.
pub fn build(kind: ModelKind) -> PartitionedModel {
    match kind {
        ModelKind::Shapes => shapes_spec().build(),
        ModelKind::Vgg => vgg_prefix_model(),
    }
}

/// The harness's view of a model: Conv-node prefix, Central suffix and the
/// boundary compression, split the way `AdcnnRuntime::launch` splits it.
pub struct Pipeline {
    pub grid: TileGrid,
    pub prefix: Network,
    pub suffix: Network,
    pub crelu: ClippedRelu,
    pub quantizer: Quantizer,
    /// Input dims `(C, H, W)`.
    pub input: (usize, usize, usize),
}

impl Pipeline {
    pub fn new(kind: ModelKind) -> Pipeline {
        let m = build(kind);
        let crelu = m.boundary_crelu.expect("benchmark models compress their boundary");
        let bits = m.boundary_quant.expect("benchmark models quantize their boundary").bits;
        Pipeline {
            grid: m.grid,
            prefix: Network::new(m.net.blocks[..m.prefix].to_vec()),
            suffix: Network::new(m.net.blocks[m.prefix..].to_vec()),
            crelu,
            quantizer: Quantizer::new(bits, crelu.range()),
            input: m.input,
        }
    }

    /// Dims `(C, h, w)` of one input tile.
    pub fn tile_dims(&self) -> (usize, usize, usize) {
        let (c, h, w) = self.input;
        (c, h / self.grid.rows, w / self.grid.cols)
    }
}

/// One convolution (as the im2col GEMM `M×K · K×N`) or pooling layer met
/// while tracing shapes through a network.
#[derive(Clone, Debug)]
pub enum Op {
    Conv {
        /// Input dims `(C, H, W)`.
        input: (usize, usize, usize),
        weight: Tensor,
        bias: Vec<f32>,
        p: Conv2dParams,
        relu: bool,
    },
    MaxPool {
        input: (usize, usize, usize),
        p: Pool2dParams,
    },
}

/// Trace `(C, H, W)` through a network's plain sequences: its conv and
/// max-pool layers with the shapes they see, and the dims that come out.
/// Stops at the first layer that leaves the `[C, H, W]` world (flatten,
/// global pool, linear).
pub fn ops_of(net: &Network, mut dims: (usize, usize, usize)) -> (Vec<Op>, (usize, usize, usize)) {
    let mut ops = Vec::new();
    for block in &net.blocks {
        let Block::Seq(layers) = block else {
            panic!("benchmark models have no residual blocks");
        };
        for (i, l) in layers.iter().enumerate() {
            match l {
                Layer::Conv2d { w, b, p } => {
                    ops.push(Op::Conv {
                        input: dims,
                        weight: w.value.clone(),
                        bias: b.value.as_slice().to_vec(),
                        p: *p,
                        relu: matches!(layers.get(i + 1), Some(Layer::Relu)),
                    });
                    dims = (w.value.dims()[0], p.out_dim(dims.1), p.out_dim(dims.2));
                }
                Layer::MaxPool(p) => {
                    ops.push(Op::MaxPool { input: dims, p: *p });
                    dims = (dims.0, p.out_dim(dims.1), p.out_dim(dims.2));
                }
                Layer::BatchNorm { .. } | Layer::Relu => {}
                _ => return (ops, dims),
            }
        }
    }
    (ops, dims)
}

/// The traffic: `n` images `N(0, 0.5²)` of the model's input size, drawn
/// from the run's `--seed`.
pub fn image_pool(input: (usize, usize, usize), n: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (c, h, w) = input;
    (0..n).map(|_| Tensor::randn([1, c, h, w], 0.5, &mut rng)).collect()
}
