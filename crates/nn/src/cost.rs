//! Device cost model: maps model descriptors to per-layer execution times.
//!
//! This substitutes for the paper's physical testbed (Raspberry Pi 3B+ edge
//! nodes, an EC2 p3.2xlarge cloud instance). Each [`DeviceProfile`] has an
//! effective sustained FLOP rate, an effective memory bandwidth and a fixed
//! per-layer dispatch overhead; a layer block's time is
//!
//! ```text
//! t = flops / flop_rate + bytes_touched / mem_bw + overhead
//! ```
//!
//! The profiles below are calibrated against the paper's own measurements
//! (Table 3: VGG16 single-Pi ≈ 1586 ms, cloud V100 ≈ 99 ms), so the
//! simulator's absolute numbers land in the paper's range and the *ratios*
//! (the claims under reproduction) follow from the same arithmetic the
//! paper's testbed obeyed.

use crate::zoo::ModelSpec;
use serde::Serialize;

/// Compute characteristics of one device class.
#[derive(Clone, Debug, Serialize)]
pub struct DeviceProfile {
    /// Display name.
    pub name: String,
    /// Effective sustained f32 throughput on convolution, FLOP/s.
    pub flops_per_sec: f64,
    /// Effective memory bandwidth, bytes/s (streams ifmap + ofmap + weights).
    pub mem_bytes_per_sec: f64,
    /// Fixed per-layer dispatch overhead, seconds.
    pub layer_overhead_s: f64,
    /// Active power draw, watts (for the Figure 13 energy model).
    pub active_power_w: f64,
    /// Idle power draw, watts.
    pub idle_power_w: f64,
}

impl DeviceProfile {
    /// Raspberry Pi 3 Model B+ as measured through PyTorch by the paper
    /// (§2.2, Table 3). Calibrated so VGG16 end-to-end ≈ 1.59 s.
    pub fn raspberry_pi3() -> Self {
        DeviceProfile {
            name: "RaspberryPi3B+".into(),
            flops_per_sec: 22.0e9,
            mem_bytes_per_sec: 5.0e9,
            layer_overhead_s: 1.0e-3,
            // Pi 3B+ draws ~5.8 W under full CPU load, ~1.9 W idle.
            active_power_w: 5.8,
            idle_power_w: 1.9,
        }
    }

    /// EC2 p3.2xlarge (one V100, single-stream inference), calibrated so
    /// VGG16 ≈ 99 ms as in Table 3.
    pub fn cloud_v100() -> Self {
        DeviceProfile {
            name: "EC2-p3.2xlarge".into(),
            flops_per_sec: 350.0e9,
            mem_bytes_per_sec: 300.0e9,
            layer_overhead_s: 0.3e-3,
            active_power_w: 300.0,
            idle_power_w: 50.0,
        }
    }

    /// A Jetson-Nano-class edge accelerator: ~5x a Pi's effective conv
    /// throughput. Used for heterogeneous-cluster experiments beyond the
    /// paper's all-identical testbed.
    pub fn jetson_nano() -> Self {
        DeviceProfile {
            name: "JetsonNano".into(),
            flops_per_sec: 110.0e9,
            mem_bytes_per_sec: 20.0e9,
            layer_overhead_s: 0.5e-3,
            active_power_w: 10.0,
            idle_power_w: 2.0,
        }
    }

    /// A uniformly slowed copy of this profile (CPUlimit-style throttling,
    /// §7.3). `factor` is the remaining fraction of speed, e.g. `0.45`
    /// for the paper's "reduce the CPU power by around 55%".
    pub fn throttled(&self, factor: f64) -> Self {
        assert!(factor > 0.0 && factor <= 1.0, "throttle factor must be in (0, 1]");
        DeviceProfile {
            name: format!("{}@{:.0}%", self.name, factor * 100.0),
            flops_per_sec: self.flops_per_sec * factor,
            mem_bytes_per_sec: self.mem_bytes_per_sec * factor,
            ..self.clone()
        }
    }

    /// Time to execute `flops` FLOPs touching `bytes` bytes, plus one layer
    /// dispatch overhead.
    pub fn layer_time_s(&self, flops: u64, bytes: u64) -> f64 {
        flops as f64 / self.flops_per_sec
            + bytes as f64 / self.mem_bytes_per_sec
            + self.layer_overhead_s
    }
}

/// Bytes a block's execution streams: ifmap + ofmap activations plus the
/// block's weights, all f32.
pub fn block_bytes_touched(m: &ModelSpec, i: usize) -> u64 {
    let dims = m.block_inputs();
    let (ic, ih, iw) = dims[i];
    let (oc, oh, ow) = dims[i + 1];
    ((ic * ih * iw + oc * oh * ow) * 4) as u64 + m.block_weight_bytes(i)
}

/// Execution time of layer block `i` of `m` on `dev` (full feature map).
pub fn block_time_s(m: &ModelSpec, i: usize, dev: &DeviceProfile) -> f64 {
    dev.layer_time_s(m.block_flops(i), block_bytes_touched(m, i))
}

/// Execution time of the trailing FC layers (dominated by streaming their
/// weights on memory-poor devices).
pub fn fc_time_s(m: &ModelSpec, dev: &DeviceProfile) -> f64 {
    if m.fcs.is_empty() {
        return 0.0;
    }
    let act_bytes: u64 = m.fcs.iter().map(|&(d, o)| ((d + o) * 4) as u64).sum();
    dev.layer_time_s(m.fc_flops(), m.fc_weight_bytes() + act_bytes)
        + dev.layer_overhead_s * (m.fcs.len().saturating_sub(1)) as f64
}

/// Time for blocks `[0, prefix)` on `dev`.
pub fn prefix_time_s(m: &ModelSpec, prefix: usize, dev: &DeviceProfile) -> f64 {
    (0..prefix).map(|i| block_time_s(m, i, dev)).sum()
}

/// Time for blocks `[prefix, len)` plus FC on `dev`.
pub fn suffix_time_s(m: &ModelSpec, prefix: usize, dev: &DeviceProfile) -> f64 {
    (prefix..m.blocks.len()).map(|i| block_time_s(m, i, dev)).sum::<f64>() + fc_time_s(m, dev)
}

/// Whole-model single-device inference time.
pub fn model_time_s(m: &ModelSpec, dev: &DeviceProfile) -> f64 {
    prefix_time_s(m, m.blocks.len(), dev) + fc_time_s(m, dev)
}

/// Time for one FDSP **tile** of block `i`: the tile covers `1/(rows·cols)`
/// of the spatial area, so FLOPs and activation bytes scale by that factor.
/// Weights are *not* charged here — a Conv node streams its prefix weights
/// once per image, not once per tile; see [`prefix_weight_load_s`].
pub fn tile_block_time_s(
    m: &ModelSpec,
    i: usize,
    grid: (usize, usize),
    dev: &DeviceProfile,
) -> f64 {
    let frac = 1.0 / (grid.0 * grid.1) as f64;
    let dims = m.block_inputs();
    let (ic, ih, iw) = dims[i];
    let (oc, oh, ow) = dims[i + 1];
    let act_bytes = ((ic * ih * iw + oc * oh * ow) * 4) as f64 * frac;
    let flops = m.block_flops(i) as f64 * frac;
    flops / dev.flops_per_sec + act_bytes / dev.mem_bytes_per_sec + dev.layer_overhead_s
}

/// One-time per-image cost of streaming the separable prefix's weights
/// through a Conv node's memory system (paid on the node's first tile of
/// each image, amortized across the rest of its batch).
pub fn prefix_weight_load_s(m: &ModelSpec, prefix: usize, dev: &DeviceProfile) -> f64 {
    let bytes: u64 = (0..prefix).map(|i| m.block_weight_bytes(i)).sum();
    bytes as f64 / dev.mem_bytes_per_sec
}

/// Time for one tile to traverse the whole separable prefix.
pub fn tile_prefix_time_s(
    m: &ModelSpec,
    prefix: usize,
    grid: (usize, usize),
    dev: &DeviceProfile,
) -> f64 {
    (0..prefix).map(|i| tile_block_time_s(m, i, grid, dev)).sum()
}

/// One row of the Figure 3 per-layer profile.
#[derive(Clone, Debug, Serialize)]
pub struct LayerProfileRow {
    /// Block name with the paper's `Lx` / `Lx(P)` convention.
    pub label: String,
    /// Execution time, milliseconds.
    pub time_ms: f64,
    /// Input feature map size, kilobytes (f32).
    pub ifmap_kb: f64,
}

/// Regenerate one panel of Figure 3: per-layer-block execution time and
/// ifmap size for `m` on `dev`, plus a trailing `FC` row when applicable.
pub fn layer_profile(m: &ModelSpec, dev: &DeviceProfile) -> Vec<LayerProfileRow> {
    let mut rows = Vec::with_capacity(m.blocks.len() + 1);
    for (i, b) in m.blocks.iter().enumerate() {
        let label = if b.pool.is_some() { format!("L{}(P)", i + 1) } else { format!("L{}", i + 1) };
        rows.push(LayerProfileRow {
            label,
            time_ms: block_time_s(m, i, dev) * 1e3,
            ifmap_kb: m.ifmap_bits(i) as f64 / 8.0 / 1024.0,
        });
    }
    if !m.fcs.is_empty() {
        rows.push(LayerProfileRow {
            label: "FC".into(),
            time_ms: fc_time_s(m, dev) * 1e3,
            ifmap_kb: m.ifmap_bits(m.blocks.len()) as f64 / 8.0 / 1024.0,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn pi_vgg16_matches_paper_table3() {
        // Table 3: single-device VGG16 computation = 1586.53 ms. Calibration
        // target: within ±25%.
        let t = model_time_s(&zoo::vgg16(), &DeviceProfile::raspberry_pi3());
        assert!((1.19..1.98).contains(&t), "VGG16 on Pi: {t} s");
    }

    #[test]
    fn v100_vgg16_matches_paper_table3() {
        // Table 3: remote-cloud VGG16 computation = 98.94 ms.
        let t = model_time_s(&zoo::vgg16(), &DeviceProfile::cloud_v100());
        assert!((0.07..0.14).contains(&t), "VGG16 on V100: {t} s");
    }

    #[test]
    fn early_blocks_take_longest() {
        // Figure 3's shape: block 2 is the most expensive VGG16 block and
        // late blocks are much cheaper.
        let m = zoo::vgg16();
        let pi = DeviceProfile::raspberry_pi3();
        let t2 = block_time_s(&m, 1, &pi);
        for i in 7..13 {
            assert!(block_time_s(&m, i, &pi) < t2, "block {i} not cheaper than L2");
        }
    }

    #[test]
    fn first_four_vgg_blocks_are_large_fraction() {
        // §2.2: "the first four layer blocks of VGG16 ... account for 41.4%"
        // of total latency. Accept a generous band around that.
        let m = zoo::vgg16();
        let pi = DeviceProfile::raspberry_pi3();
        let early: f64 = (0..4).map(|i| block_time_s(&m, i, &pi)).sum();
        let frac = early / model_time_s(&m, &pi);
        assert!((0.25..0.55).contains(&frac), "fraction {frac}");
    }

    #[test]
    fn tile_time_scales_inversely_with_grid() {
        let m = zoo::vgg16();
        let pi = DeviceProfile::raspberry_pi3();
        let full = tile_prefix_time_s(&m, 7, (1, 1), &pi);
        let t4 = tile_prefix_time_s(&m, 7, (2, 2), &pi);
        let t64 = tile_prefix_time_s(&m, 7, (8, 8), &pi);
        assert!(t4 < full && t64 < t4);
        // compute part scales by 1/4 and 1/64, overheads don't
        assert!(t4 > full / 4.0);
        assert!(t64 > full / 64.0);
    }

    #[test]
    fn throttling_slows_proportionally() {
        let m = zoo::vgg16();
        let pi = DeviceProfile::raspberry_pi3();
        let slow = pi.throttled(0.45);
        let t_fast = model_time_s(&m, &pi);
        let t_slow = model_time_s(&m, &slow);
        let ratio = t_slow / t_fast;
        assert!((2.0..2.4).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    #[should_panic]
    fn throttle_rejects_zero() {
        DeviceProfile::raspberry_pi3().throttled(0.0);
    }

    #[test]
    fn layer_profile_has_pool_markers_and_fc() {
        let rows = layer_profile(&zoo::vgg16(), &DeviceProfile::raspberry_pi3());
        assert_eq!(rows.len(), 14);
        assert_eq!(rows[1].label, "L2(P)");
        assert_eq!(rows.last().unwrap().label, "FC");
        assert!(rows.iter().all(|r| r.time_ms > 0.0));
    }

    #[test]
    fn profile_times_sum_to_model_time() {
        let m = zoo::vgg16();
        let pi = DeviceProfile::raspberry_pi3();
        let rows = layer_profile(&m, &pi);
        let sum_ms: f64 = rows.iter().map(|r| r.time_ms).sum();
        let total_ms = model_time_s(&m, &pi) * 1e3;
        assert!((sum_ms - total_ms).abs() < 1e-6);
    }

    #[test]
    fn prefix_plus_suffix_equals_total() {
        let m = zoo::yolo();
        let pi = DeviceProfile::raspberry_pi3();
        for p in [0, 5, 12, m.blocks.len()] {
            let total = prefix_time_s(&m, p, &pi) + suffix_time_s(&m, p, &pi);
            assert!((total - model_time_s(&m, &pi)).abs() < 1e-9);
        }
    }
}
