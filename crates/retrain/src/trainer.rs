//! Mini-batch SGD training loop shared by all retraining stages.

use crate::data::Dataset;
use crate::partitioned::PartitionedModel;
use adcnn_nn::Sgd;
use adcnn_tensor::loss::{accuracy, softmax_cross_entropy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Training-loop hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    /// Maximum epochs to run.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Stop early once held-out accuracy reaches this value (1.1 disables).
    pub target_accuracy: f64,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            batch_size: 32,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
            target_accuracy: 1.1,
            seed: 0,
        }
    }
}

/// Outcome of a training run.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub losses: Vec<f64>,
    /// Held-out accuracy after each epoch.
    pub accuracies: Vec<f64>,
    /// Epochs actually executed (≤ `cfg.epochs` with early stopping).
    pub epochs_used: usize,
}

impl TrainReport {
    /// Final held-out accuracy.
    pub fn final_accuracy(&self) -> f64 {
        self.accuracies.last().copied().unwrap_or(0.0)
    }
}

/// Train `model` on `data`, evaluating on the test split each epoch.
pub fn train(model: &mut PartitionedModel, data: &Dataset, cfg: &TrainConfig) -> TrainReport {
    let opt = Sgd::with_momentum(cfg.lr, cfg.momentum, cfg.weight_decay);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n = data.train_len();
    let mut order: Vec<usize> = (0..n).collect();
    let mut losses = Vec::new();
    let mut accuracies = Vec::new();
    let mut epochs_used = 0;

    for _epoch in 0..cfg.epochs {
        epochs_used += 1;
        // shuffle
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut epoch_loss = 0.0;
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch_size) {
            let (bx, by) = data.batch(chunk);
            let (logits, ctx) = model.forward_train(&bx);
            let (loss, dl) = softmax_cross_entropy(&logits, &by);
            model.backward(&ctx, &dl);
            opt.step(&mut model.net);
            epoch_loss += loss;
            batches += 1;
        }
        losses.push(epoch_loss / batches.max(1) as f64);
        accuracies.push(evaluate(model, data));
        if accuracies.last().copied().unwrap_or(0.0) >= cfg.target_accuracy {
            break;
        }
    }
    TrainReport { losses, accuracies, epochs_used }
}

/// Held-out accuracy of the model as the cluster serves it
/// ([`PartitionedModel::infer`]).
pub fn evaluate(model: &PartitionedModel, data: &Dataset) -> f64 {
    accuracy(&model.infer(&data.test_x), &data.test_y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::shapes;
    use adcnn_core::fdsp::TileGrid;
    use adcnn_nn::small::shapes_cnn;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn training_learns_shapes() {
        let mut rng = StdRng::seed_from_u64(11);
        let data = shapes(180, 60, 16, 11);
        let small = shapes_cnn_16(&mut rng, data.classes);
        let mut model = PartitionedModel::unpartitioned(small);
        let cfg = TrainConfig { epochs: 8, target_accuracy: 0.9, ..Default::default() };
        let rep = train(&mut model, &data, &cfg);
        assert!(
            rep.final_accuracy() > 0.8,
            "accuracy {:.3} after {} epochs (losses {:?})",
            rep.final_accuracy(),
            rep.epochs_used,
            rep.losses
        );
        // loss decreased
        assert!(rep.losses.last().unwrap() < &rep.losses[0]);
    }

    #[test]
    fn early_stop_respects_target() {
        let mut rng = StdRng::seed_from_u64(12);
        let data = shapes(180, 60, 16, 12);
        let small = shapes_cnn_16(&mut rng, data.classes);
        let mut model = PartitionedModel::unpartitioned(small);
        let cfg = TrainConfig { epochs: 30, target_accuracy: 0.7, ..Default::default() };
        let rep = train(&mut model, &data, &cfg);
        assert!(rep.epochs_used < 30, "never early-stopped");
        assert!(rep.final_accuracy() >= 0.7);
    }

    /// A 16×16 variant of the small shapes CNN for fast tests.
    fn shapes_cnn_16(rng: &mut StdRng, classes: usize) -> adcnn_nn::small::SmallModel {
        let m = shapes_cnn(classes, rng);
        // Re-derive the classifier for 16x16 inputs (32 channels at 4x4).
        let mut net = m.net;
        net.blocks.pop();
        net.blocks.push(adcnn_nn::Block::Seq(vec![
            adcnn_nn::Layer::Flatten,
            adcnn_nn::Layer::linear(32 * 4 * 4, classes, rng),
        ]));
        adcnn_nn::small::SmallModel {
            net,
            name: "ShapesCNN16",
            input: (3, 16, 16),
            classes,
            separable_prefix: 2,
            prefix_scale: (2, 2),
        }
    }

    #[test]
    fn partitioned_trainer_also_learns() {
        let mut rng = StdRng::seed_from_u64(13);
        let data = shapes(180, 60, 16, 13);
        let small = shapes_cnn_16(&mut rng, data.classes);
        let mut model = PartitionedModel::fdsp(small, TileGrid::new(2, 2));
        let cfg = TrainConfig { epochs: 8, target_accuracy: 0.85, ..Default::default() };
        let rep = train(&mut model, &data, &cfg);
        assert!(rep.final_accuracy() > 0.7, "accuracy {:.3}", rep.final_accuracy());
    }
}

/// Dense-prediction training loop (FCN-style): same SGD schedule as
/// [`train`] but with per-pixel cross-entropy over `[N, K, H, W]` logits.
/// Returns per-epoch losses plus held-out pixel accuracy and mean IoU.
pub fn train_dense(
    model: &mut PartitionedModel,
    data: &crate::data::SegDataset,
    cfg: &TrainConfig,
) -> TrainReport {
    use adcnn_tensor::loss::pixel_cross_entropy;
    let opt = Sgd::with_momentum(cfg.lr, cfg.momentum, cfg.weight_decay);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n = data.train_len();
    let mut order: Vec<usize> = (0..n).collect();
    let mut losses = Vec::new();
    let mut accuracies = Vec::new();
    let mut epochs_used = 0;
    for _ in 0..cfg.epochs {
        epochs_used += 1;
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut epoch_loss = 0.0;
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch_size) {
            let (bx, by) = data.batch(chunk);
            let (logits, ctx) = model.forward_train(&bx);
            let (loss, dl) = pixel_cross_entropy(&logits, &by);
            model.backward(&ctx, &dl);
            opt.step(&mut model.net);
            epoch_loss += loss;
            batches += 1;
        }
        losses.push(epoch_loss / batches.max(1) as f64);
        accuracies.push(evaluate_dense(model, data).0);
        if accuracies.last().copied().unwrap_or(0.0) >= cfg.target_accuracy {
            break;
        }
    }
    TrainReport { losses, accuracies, epochs_used }
}

/// Held-out `(pixel accuracy, mean IoU)` of a dense model — the two FCN
/// metrics the paper's Figure 10 reports, on the served forward
/// ([`PartitionedModel::infer`]). Both pool over the whole test set: every
/// pixel counts once, and mIoU sums each class's intersections and unions
/// over all images before dividing.
pub fn evaluate_dense(model: &PartitionedModel, data: &crate::data::SegDataset) -> (f64, f64) {
    use adcnn_tensor::loss::{mean_iou, pixel_accuracy};
    let logits = model.infer(&data.test_x);
    (pixel_accuracy(&logits, &data.test_y), mean_iou(&logits, &data.test_y))
}

#[cfg(test)]
mod dense_tests {
    use super::*;
    use crate::data::shapes_seg;
    use adcnn_core::fdsp::TileGrid;
    use adcnn_nn::small::small_fcn;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn dense_training_learns_segmentation() {
        let data = shapes_seg(96, 32, 16, 81);
        let mut rng = StdRng::seed_from_u64(81);
        let mut model = PartitionedModel::unpartitioned(small_fcn_16(data.classes, &mut rng));
        let cfg = TrainConfig { epochs: 10, target_accuracy: 0.93, lr: 0.1, ..Default::default() };
        let rep = train_dense(&mut model, &data, &cfg);
        let (acc, iou) = evaluate_dense(&model, &data);
        assert!(acc > 0.85, "pixel acc {acc} (losses {:?})", rep.losses);
        assert!(iou > 0.2, "mean IoU {iou}");
    }

    #[test]
    fn fdsp_dense_model_still_segments() {
        // FDSP on a dense-prediction model: the suffix consumes a tiled
        // boundary and still emits a full-resolution map.
        let data = shapes_seg(96, 32, 16, 83);
        let mut rng = StdRng::seed_from_u64(83);
        let mut model =
            PartitionedModel::fdsp(small_fcn_16(data.classes, &mut rng), TileGrid::new(2, 2));
        let cfg = TrainConfig { epochs: 10, target_accuracy: 0.93, lr: 0.1, ..Default::default() };
        train_dense(&mut model, &data, &cfg);
        let (acc, iou) = evaluate_dense(&model, &data);
        assert!(acc > 0.8, "pixel acc {acc}");
        assert!(iou > 0.15, "mean IoU {iou}");
    }

    /// Both metrics pool over the whole held-out set, so every image weighs
    /// the same whatever the set's size (40 is no multiple of a batch), and
    /// mIoU divides pooled intersections by pooled unions.
    #[test]
    fn dense_metrics_pool_over_the_whole_test_set() {
        use adcnn_tensor::loss::{mean_iou, pixel_accuracy};
        let data = shapes_seg(0, 40, 16, 85);
        let mut rng = StdRng::seed_from_u64(85);
        let model = PartitionedModel::unpartitioned(small_fcn_16(data.classes, &mut rng));
        let logits = model.infer(&data.test_x);
        let want = (pixel_accuracy(&logits, &data.test_y), mean_iou(&logits, &data.test_y));
        assert_eq!(evaluate_dense(&model, &data), want);
    }

    /// 16×16 variant of the small FCN for fast tests.
    fn small_fcn_16(classes: usize, rng: &mut StdRng) -> adcnn_nn::small::SmallModel {
        let m = small_fcn(classes, rng);
        adcnn_nn::small::SmallModel { input: (3, 16, 16), ..m }
    }
}
