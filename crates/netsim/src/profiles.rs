//! Calibrated testbed parameters: link bandwidths, device profiles and
//! per-model compression sparsities.

use adcnn_core::compress::sparsity_for_ratio;

/// A point-to-point (or shared-medium) link.
#[derive(Clone, Copy, Debug)]
pub struct LinkParams {
    /// Usable bandwidth, bits/second.
    pub bandwidth_bps: f64,
    /// One-way propagation + stack latency, seconds.
    pub latency_s: f64,
    /// Fixed per-message protocol overhead (TCP slow-start, TLS, request
    /// framing), seconds. Zero on the LAN; substantial on the WAN — the
    /// paper's own Table 3 measures 502 ms of "transmission" for a ~4.8
    /// Mbit upload over a 61.3 Mbps link, i.e. ~420 ms of overhead beyond
    /// serialization, which this term models.
    pub per_message_overhead_s: f64,
}

impl LinkParams {
    /// The paper's measured Conv↔Central WiFi: 87.72 Mbps (§7.2).
    pub fn wifi_fast() -> Self {
        LinkParams { bandwidth_bps: 87.72e6, latency_s: 1.5e-3, per_message_overhead_s: 0.0 }
    }

    /// The degraded WiFi rate of Figure 12: 12.66 Mbps.
    pub fn wifi_slow() -> Self {
        LinkParams { bandwidth_bps: 12.66e6, latency_s: 1.5e-3, per_message_overhead_s: 0.0 }
    }

    /// The measured edge→cloud uplink: 61.30 Mbps (§7.2), with WAN latency
    /// and per-message overhead calibrated to the paper's Table 3.
    pub fn cloud_uplink() -> Self {
        LinkParams { bandwidth_bps: 61.30e6, latency_s: 20e-3, per_message_overhead_s: 0.2 }
    }

    /// A Wi-Fi 6 access point at a conservative 120 Mbps effective
    /// throughput — the serving-cluster link used by the pipeline depth
    /// sweep, beyond the paper's 802.11ac testbed.
    pub fn wifi6() -> Self {
        LinkParams { bandwidth_bps: 120.0e6, latency_s: 1.5e-3, per_message_overhead_s: 0.0 }
    }

    /// Serialization time for a message of `bits` (channel occupancy;
    /// excludes latency and per-message overhead).
    pub fn occupancy_s(&self, bits: u64) -> f64 {
        bits as f64 / self.bandwidth_bps
    }

    /// Full one-way transfer time for a message of `bits`.
    pub fn transfer_s(&self, bits: u64) -> f64 {
        self.per_message_overhead_s + self.occupancy_s(bits) + self.latency_s
    }
}

/// The paper's Table 2 compression ratios (compressed/original after the
/// §4 pipeline, 8×8 partition), used to calibrate per-model activation
/// sparsity.
pub fn table2_ratio(model: &str) -> f64 {
    match model {
        "VGG16" => 0.032,
        "ResNet34" => 0.043,
        "FCN" => 0.011,
        "YOLO" => 0.020,
        "CharCNN" => 0.056,
        // Models the paper did not tabulate get the average reduction (33x).
        _ => 0.030,
    }
}

/// The clipped-ReLU output sparsity that makes the real codec reach the
/// model's Table 2 ratio.
pub fn model_sparsity(model: &str) -> f64 {
    sparsity_for_ratio(table2_ratio(model), 4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidths_match_paper() {
        assert_eq!(LinkParams::wifi_fast().bandwidth_bps, 87.72e6);
        assert_eq!(LinkParams::wifi_slow().bandwidth_bps, 12.66e6);
        assert_eq!(LinkParams::cloud_uplink().bandwidth_bps, 61.30e6);
    }

    #[test]
    fn occupancy_scales_linearly() {
        let l = LinkParams::wifi_fast();
        let one = l.occupancy_s(87_720_000);
        assert!((one - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sparsities_are_high_but_below_one() {
        for m in ["VGG16", "ResNet34", "FCN", "YOLO", "CharCNN"] {
            let s = model_sparsity(m);
            assert!((0.8..1.0).contains(&s), "{m}: {s}");
        }
        // tighter ratio -> higher sparsity
        assert!(model_sparsity("FCN") > model_sparsity("CharCNN"));
    }
}
