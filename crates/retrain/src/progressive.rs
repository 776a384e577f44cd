//! Algorithm 1: progressive retraining.
//!
//! Starting from a converged original model, the modifications are folded
//! in one at a time — FDSP, clipped ReLU, quantization — retraining a few
//! epochs after each until accuracy recovers. The paper's Table 1 reports
//! the per-stage epoch counts; [`progressive_retrain`] returns the same
//! accounting, plus a one-shot [`direct_retrain`] ablation that applies all
//! modifications at once (§5 reports it plateaus 4–5% below the original).

use crate::data::Dataset;
use crate::partitioned::{choose_crelu_bounds, PartitionedModel};
use crate::trainer::{evaluate, train, TrainConfig};
use adcnn_core::fdsp::TileGrid;
use adcnn_nn::layer::QuantizeSte;
use adcnn_nn::small::SmallModel;
use serde::Serialize;

/// Configuration of the progressive retraining run.
#[derive(Clone, Copy, Debug)]
pub struct RetrainConfig {
    /// Acceptable accuracy drop versus the original model (paper: ≤1%).
    pub tolerance: f64,
    /// Epoch cap per stage.
    pub max_epochs_per_stage: usize,
    /// Target sparsity for the clipped ReLU bound search.
    pub target_sparsity: f64,
    /// Quantizer bit width (paper: 4).
    pub quant_bits: u8,
    /// Inner training-loop settings.
    pub train: TrainConfig,
}

impl Default for RetrainConfig {
    fn default() -> Self {
        RetrainConfig {
            tolerance: 0.01,
            max_epochs_per_stage: 8,
            target_sparsity: 0.9,
            quant_bits: 4,
            train: TrainConfig::default(),
        }
    }
}

/// Per-stage accounting (one row of the paper's Table 1).
#[derive(Clone, Debug, Serialize)]
pub struct StageReport {
    /// Stage name: `"FDSP"`, `"Clipped ReLU"`, `"Quantization"`.
    pub stage: String,
    /// Held-out accuracy right after applying the modification, before any
    /// retraining.
    pub acc_before: f64,
    /// Accuracy after this stage's retraining.
    pub acc_after: f64,
    /// Epochs this stage needed.
    pub epochs: usize,
}

/// Full Algorithm 1 outcome.
#[derive(Clone, Debug, Serialize)]
pub struct ProgressiveReport {
    /// Accuracy of the original (unpartitioned) model.
    pub original_accuracy: f64,
    /// Accuracy of the final modified model.
    pub final_accuracy: f64,
    /// The three stages, in order.
    pub stages: Vec<StageReport>,
}

impl ProgressiveReport {
    /// Total extra epochs (the paper's Table 1 "Total" column).
    pub fn total_epochs(&self) -> usize {
        self.stages.iter().map(|s| s.epochs).sum()
    }

    /// `original − final` accuracy (positive = degradation).
    pub fn accuracy_drop(&self) -> f64 {
        self.original_accuracy - self.final_accuracy
    }
}

/// The paper's §7.1 bound selection: "first search for a coarse parameter
/// range based on separable layer block output statistics, and then perform
/// grid search to produce expected output sparsity."
///
/// The coarse range comes from activation quantiles
/// ([`choose_crelu_bounds`]); the grid then perturbs `(lo, hi)` around it
/// and keeps the candidate with the highest held-out accuracy among those
/// that reach `target_sparsity` on the boundary activations.
pub fn grid_search_crelu(
    model: &mut PartitionedModel,
    data: &Dataset,
    target_sparsity: f64,
) -> adcnn_tensor::activ::ClippedRelu {
    let sample_n = data.train_len().min(64);
    let idx: Vec<usize> = (0..sample_n).collect();
    let (sample_x, _) = data.batch(&idx);
    let acts = model.boundary_activations(&sample_x);
    let coarse = choose_crelu_bounds(&acts, target_sparsity);

    let mut best = (coarse, f64::NEG_INFINITY);
    let lo_grid = [-0.1f32, 0.0, 0.1];
    let hi_grid = [0.8f32, 1.0, 1.25];
    let saved = (model.boundary_crelu, model.boundary_quant);
    for dlo in lo_grid {
        for shi in hi_grid {
            let lo = coarse.lo + dlo * coarse.range();
            let hi = coarse.lo + shi * coarse.range();
            if hi <= lo {
                continue;
            }
            let cand = adcnn_tensor::activ::ClippedRelu::new(lo, hi);
            let sparsity = cand.forward(&acts).sparsity();
            if sparsity + 0.02 < target_sparsity {
                continue; // misses the compression target
            }
            model.boundary_crelu = Some(cand);
            model.boundary_quant = None;
            let acc = evaluate(model, data);
            if acc > best.1 {
                best = (cand, acc);
            }
        }
    }
    model.boundary_crelu = saved.0;
    model.boundary_quant = saved.1;
    best.0
}

fn retrain_until(
    model: &mut PartitionedModel,
    data: &Dataset,
    target: f64,
    cfg: &RetrainConfig,
) -> (f64, usize) {
    let mut tc = cfg.train;
    tc.epochs = cfg.max_epochs_per_stage;
    tc.target_accuracy = target;
    let rep = train(model, data, &tc);
    (rep.final_accuracy(), rep.epochs_used)
}

/// Run Algorithm 1. `original` must already be trained to convergence on
/// `data` (`M_ori` in the paper); its weights are reused as the starting
/// point of each stage.
pub fn progressive_retrain(
    original: SmallModel,
    data: &Dataset,
    grid: TileGrid,
    cfg: &RetrainConfig,
) -> (PartitionedModel, ProgressiveReport) {
    // Step 2 of Algorithm 1: measure the original model.
    let mut model = PartitionedModel::unpartitioned(original);
    let original_accuracy = evaluate(&mut model, data);
    let target = original_accuracy - cfg.tolerance;
    let mut stages = Vec::with_capacity(3);

    // Step 3: apply FDSP, retrain until recovered (M1).
    model.grid = grid;
    let acc_before = evaluate(&mut model, data);
    let (acc_after, epochs) = retrain_until(&mut model, data, target, cfg);
    stages.push(StageReport { stage: "FDSP".into(), acc_before, acc_after, epochs });

    // Step 4: insert the clipped ReLU on the separable-block outputs (M2),
    // with the §7.1 coarse-statistics + grid-search bound selection.
    let cr = grid_search_crelu(&mut model, data, cfg.target_sparsity);
    model.boundary_crelu = Some(cr);
    let acc_before = evaluate(&mut model, data);
    let (acc_after, epochs) = retrain_until(&mut model, data, target, cfg);
    stages.push(StageReport { stage: "Clipped ReLU".into(), acc_before, acc_after, epochs });

    // Step 5: quantize the clipped-ReLU output (M_final).
    model.boundary_quant = Some(QuantizeSte::new(cfg.quant_bits, cr.range()));
    let acc_before = evaluate(&mut model, data);
    let (acc_after, epochs) = retrain_until(&mut model, data, target, cfg);
    stages.push(StageReport { stage: "Quantization".into(), acc_before, acc_after, epochs });

    let final_accuracy = stages.last().unwrap().acc_after;
    (model, ProgressiveReport { original_accuracy, final_accuracy, stages })
}

/// Ablation: apply every modification at once and retrain once (the
/// non-progressive strategy §5 argues against).
pub fn direct_retrain(
    original: SmallModel,
    data: &Dataset,
    grid: TileGrid,
    cfg: &RetrainConfig,
) -> (PartitionedModel, ProgressiveReport) {
    let mut model = PartitionedModel::unpartitioned(original);
    let original_accuracy = evaluate(&mut model, data);
    let target = original_accuracy - cfg.tolerance;

    model.grid = grid;
    let sample_n = data.train_len().min(64);
    let idx: Vec<usize> = (0..sample_n).collect();
    let (sample_x, _) = data.batch(&idx);
    let acts = model.boundary_activations(&sample_x);
    let cr = choose_crelu_bounds(&acts, cfg.target_sparsity);
    model.boundary_crelu = Some(cr);
    model.boundary_quant = Some(QuantizeSte::new(cfg.quant_bits, cr.range()));

    let acc_before = evaluate(&mut model, data);
    // Give the one-shot strategy the same *total* epoch budget as the
    // three progressive stages combined.
    let mut big = *cfg;
    big.max_epochs_per_stage = cfg.max_epochs_per_stage * 3;
    let (acc_after, epochs) = retrain_until(&mut model, data, target, &big);
    let report = ProgressiveReport {
        original_accuracy,
        final_accuracy: acc_after,
        stages: vec![StageReport { stage: "All-at-once".into(), acc_before, acc_after, epochs }],
    };
    (model, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::shapes;
    use adcnn_nn::small::SmallModel;
    use adcnn_nn::{Block, Layer, Network};
    use rand::{rngs::StdRng, SeedableRng};

    /// A compact 16×16 shapes model trained to convergence.
    fn trained_original(seed: u64, data: &Dataset) -> (SmallModel, f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let same = adcnn_tensor::conv::Conv2dParams::same(3);
        let net = Network::new(vec![
            Block::Seq(vec![
                Layer::conv2d(3, 12, 3, same, &mut rng),
                Layer::batch_norm(12),
                Layer::Relu,
            ]),
            Block::Seq(vec![
                Layer::conv2d(12, 12, 3, same, &mut rng),
                Layer::batch_norm(12),
                Layer::Relu,
                Layer::MaxPool(adcnn_tensor::pool::Pool2dParams::non_overlapping(2)),
            ]),
            Block::Seq(vec![Layer::Flatten, Layer::linear(12 * 8 * 8, 6, &mut rng)]),
        ]);
        let m = SmallModel {
            net,
            name: "Shapes16",
            input: (3, 16, 16),
            classes: 6,
            separable_prefix: 2,
            prefix_scale: (2, 2),
        };
        let mut part = PartitionedModel::unpartitioned(m);
        let tc = TrainConfig { epochs: 30, target_accuracy: 0.93, ..Default::default() };
        let rep = train(&mut part, data, &tc);
        let acc = rep.final_accuracy();
        let m = SmallModel {
            net: part.net,
            name: "Shapes16",
            input: (3, 16, 16),
            classes: 6,
            separable_prefix: 2,
            prefix_scale: (2, 2),
        };
        (m, acc)
    }

    #[test]
    fn progressive_recovers_accuracy() {
        let data = shapes(360, 120, 16, 21);
        let (original, base_acc) = trained_original(21, &data);
        assert!(base_acc > 0.8, "original failed to train: {base_acc}");
        let cfg = RetrainConfig {
            tolerance: 0.03,
            max_epochs_per_stage: 6,
            target_sparsity: 0.85,
            ..Default::default()
        };
        let (_, report) = progressive_retrain(original, &data, TileGrid::new(2, 2), &cfg);
        assert_eq!(report.stages.len(), 3);
        assert!(
            report.accuracy_drop() <= 0.08,
            "final {} vs original {} (stages {:?})",
            report.final_accuracy,
            report.original_accuracy,
            report.stages
        );
        // each stage used at least one epoch and a small total (Table 1's
        // point: far fewer than training from scratch)
        assert!(report.total_epochs() >= 3);
        assert!(report.total_epochs() <= 18);
    }

    #[test]
    fn stage_order_matches_algorithm_1() {
        let data = shapes(120, 60, 16, 22);
        let (original, _) = trained_original(22, &data);
        let cfg = RetrainConfig { tolerance: 0.05, max_epochs_per_stage: 2, ..Default::default() };
        let (model, report) = progressive_retrain(original, &data, TileGrid::new(2, 2), &cfg);
        let names: Vec<&str> = report.stages.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(names, ["FDSP", "Clipped ReLU", "Quantization"]);
        assert!(model.boundary_crelu.is_some());
        assert!(model.boundary_quant.is_some());
        assert_eq!(model.grid, TileGrid::new(2, 2));
    }

    #[test]
    fn direct_retrain_reports_single_stage() {
        let data = shapes(120, 60, 16, 23);
        let (original, _) = trained_original(23, &data);
        let cfg = RetrainConfig { tolerance: 0.05, max_epochs_per_stage: 2, ..Default::default() };
        let (_, report) = direct_retrain(original, &data, TileGrid::new(2, 2), &cfg);
        assert_eq!(report.stages.len(), 1);
        assert!(report.final_accuracy > 0.0);
    }
}

#[cfg(test)]
mod grid_search_tests {
    use super::*;
    use crate::data::shapes;
    use adcnn_nn::small::shapes_cnn;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn grid_search_meets_sparsity_and_keeps_model_intact() {
        let data = shapes(120, 60, 32, 31);
        let mut rng = StdRng::seed_from_u64(31);
        let mut model =
            PartitionedModel::fdsp(shapes_cnn(data.classes, &mut rng), TileGrid::new(2, 2));
        let before = (model.boundary_crelu, model.boundary_quant);
        let cr = grid_search_crelu(&mut model, &data, 0.85);
        // the search must not leave candidate bounds installed
        assert_eq!(model.boundary_crelu, before.0);
        assert_eq!(model.boundary_quant, before.1);
        // the chosen bounds actually reach the sparsity target
        let idx: Vec<usize> = (0..32).collect();
        let (x, _) = data.batch(&idx);
        let acts = model.boundary_activations(&x);
        let s = cr.forward(&acts).sparsity();
        assert!(s >= 0.8, "sparsity {s}");
    }

    #[test]
    fn grid_search_prefers_accurate_bounds() {
        // With a trained model, the selected bounds should not be wildly
        // worse than the quantile heuristic.
        let data = shapes(180, 90, 32, 33);
        let mut rng = StdRng::seed_from_u64(33);
        let mut model = PartitionedModel::unpartitioned(shapes_cnn(data.classes, &mut rng));
        let tc = crate::trainer::TrainConfig { epochs: 8, ..Default::default() };
        crate::trainer::train(&mut model, &data, &tc);
        model.grid = TileGrid::new(2, 2);

        let cr = grid_search_crelu(&mut model, &data, 0.8);
        model.boundary_crelu = Some(cr);
        let acc = evaluate(&mut model, &data);
        assert!(acc > 0.5, "grid-searched bounds destroyed the model: {acc}");
    }
}
