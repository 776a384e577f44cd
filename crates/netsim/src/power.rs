//! Energy and memory model behind Figure 13's right panel.
//!
//! The paper measures a Conv node's wall-power with a USB meter and its
//! memory footprint while varying the cluster size; both fall as nodes are
//! added because each node stores and processes fewer tiles. We model:
//!
//! - energy per image per node = `P_active · t_busy + P_idle · t_idle`
//!   over that node's share of the run;
//! - memory per Conv node = separable-prefix weights + its tiles' peak
//!   activations; the single-device reference holds the whole model and a
//!   full-size activation map.

use adcnn_nn::cost::DeviceProfile;
use adcnn_nn::zoo::ModelSpec;

/// Per-node energy over a simulated run.
#[derive(Clone, Copy, Debug)]
pub struct EnergyReport {
    /// Joules consumed while computing.
    pub active_j: f64,
    /// Joules consumed while idle.
    pub idle_j: f64,
    /// Joules per processed image.
    pub per_image_j: f64,
}

/// Energy spent by one node that was busy `busy_s` seconds during a run of
/// `total_s` seconds covering `images` inputs.
pub fn node_energy(dev: &DeviceProfile, busy_s: f64, total_s: f64, images: usize) -> EnergyReport {
    let busy = busy_s.min(total_s);
    let active_j = dev.active_power_w * busy;
    let idle_j = dev.idle_power_w * (total_s - busy).max(0.0);
    EnergyReport { active_j, idle_j, per_image_j: (active_j + idle_j) / images.max(1) as f64 }
}

/// Energy of the single-device scheme: the device is active for the whole
/// inference.
pub fn single_device_energy_per_image(dev: &DeviceProfile, latency_s: f64) -> f64 {
    dev.active_power_w * latency_s
}

/// Peak per-tile activation bytes across the separable prefix (input +
/// output maps of the heaviest block, divided across tiles).
fn peak_tile_activation_bytes(m: &ModelSpec, prefix: usize, tiles: usize) -> u64 {
    let dims = m.block_inputs();
    let mut peak = 0u64;
    for i in 0..prefix {
        let (ic, ih, iw) = dims[i];
        let (oc, oh, ow) = dims[i + 1];
        peak = peak.max(((ic * ih * iw + oc * oh * ow) * 4) as u64);
    }
    peak / tiles.max(1) as u64
}

/// Memory footprint of one Conv node holding `tiles_held` of the image's
/// tiles: prefix weights + its tiles' activations.
pub fn conv_node_memory_bytes(
    m: &ModelSpec,
    prefix: usize,
    total_tiles: usize,
    tiles_held: u32,
) -> u64 {
    let weights: u64 = (0..prefix).map(|i| m.block_weight_bytes(i)).sum();
    weights + peak_tile_activation_bytes(m, prefix, total_tiles) * tiles_held as u64
}

/// Memory footprint of the single-device scheme: the whole model plus the
/// largest full-size activation pair.
pub fn single_device_memory_bytes(m: &ModelSpec) -> u64 {
    let weights: u64 =
        (0..m.blocks.len()).map(|i| m.block_weight_bytes(i)).sum::<u64>() + m.fc_weight_bytes();
    let dims = m.block_inputs();
    let mut peak = 0u64;
    for i in 0..m.blocks.len() {
        let (ic, ih, iw) = dims[i];
        let (oc, oh, ow) = dims[i + 1];
        peak = peak.max(((ic * ih * iw + oc * oh * ow) * 4) as u64);
    }
    weights + peak
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcnn_nn::zoo;

    #[test]
    fn energy_splits_active_idle() {
        let pi = DeviceProfile::raspberry_pi3();
        let r = node_energy(&pi, 2.0, 10.0, 5);
        assert!((r.active_j - 2.0 * 5.8).abs() < 1e-9);
        assert!((r.idle_j - 8.0 * 1.9).abs() < 1e-9);
        assert!((r.per_image_j - (r.active_j + r.idle_j) / 5.0).abs() < 1e-9);
    }

    #[test]
    fn busier_node_uses_more_energy() {
        let pi = DeviceProfile::raspberry_pi3();
        let light = node_energy(&pi, 1.0, 10.0, 5);
        let heavy = node_energy(&pi, 8.0, 10.0, 5);
        assert!(heavy.per_image_j > light.per_image_j);
    }

    #[test]
    fn conv_node_memory_decreases_with_cluster_size() {
        // Figure 13 right panel: each node's footprint shrinks as tiles
        // spread over more nodes.
        let m = zoo::vgg16();
        let mem2 = conv_node_memory_bytes(&m, 7, 64, 32); // 2 nodes: 32 tiles each
        let mem8 = conv_node_memory_bytes(&m, 7, 64, 8); // 8 nodes: 8 tiles each
        assert!(mem8 < mem2);
    }

    #[test]
    fn conv_node_memory_below_single_device() {
        let m = zoo::vgg16();
        let node = conv_node_memory_bytes(&m, 7, 64, 8);
        let single = single_device_memory_bytes(&m);
        assert!(node * 4 < single, "node {node} vs single {single}");
    }

    #[test]
    fn single_device_memory_dominated_by_weights() {
        // VGG16's FC weights alone are ~494 MB.
        let m = zoo::vgg16();
        assert!(single_device_memory_bytes(&m) > 500_000_000);
    }
}
