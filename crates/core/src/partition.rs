//! Partition-strategy analysis (§3.1) and receptive-field/halo arithmetic.
//!
//! The paper motivates FDSP by costing the alternatives on real model
//! shapes; this module reproduces that arithmetic from the zoo descriptors,
//! and provides the halo-growth computation that both the naive
//! spatial-partition analysis and the AOFL baseline (fused-layer tiles with
//! overlapped inputs) are built on.

use crate::fdsp::TileGrid;
use adcnn_nn::zoo::ModelSpec;
use serde::Serialize;

/// The CNN partitioning strategies discussed in §3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Strategy {
    /// Whole images batched across nodes: helps throughput, not latency.
    Batch,
    /// Feature maps split along channels; every layer requires exchanging
    /// partial ofmaps.
    Channel,
    /// Spatial tiles with halo exchange each layer.
    SpatialHalo,
    /// The paper's Fully Decomposable Spatial Partition: zero cross-tile
    /// traffic.
    Fdsp,
}

/// Per-layer cross-node communication (bits) for one strategy over `k`
/// nodes, at layer block `i` of `m` (traffic to produce block `i+1`'s
/// input, 32-bit activations).
pub fn layer_comm_bits(m: &ModelSpec, i: usize, strategy: Strategy, k: usize) -> u64 {
    assert!(k >= 1, "need at least one node");
    if k == 1 {
        return 0;
    }
    let (oc, oh, ow) = m.block_output(i);
    match strategy {
        // Batch partitioning never communicates between layers.
        Strategy::Batch => 0,
        // §3.1: each node holds partial sums over its channel slice and must
        // all-reduce the full ofmap; per node-pair the traffic is the ofmap
        // divided by k (the paper's 2-device example: 224·224·64/2 · 32 bit).
        Strategy::Channel => ((oc * oh * ow) as u64 * 32) / k as u64,
        // Spatial with halo: each tile sends its border ring of width
        // halo = k_w/2 to each neighbour. Cost grows with the tile perimeter.
        Strategy::SpatialHalo => {
            let grid = square_grid(k);
            let halo = m.blocks[i].conv.kw / 2;
            if halo == 0 {
                return 0;
            }
            let th = oh / grid.rows.max(1);
            let tw = ow / grid.cols.max(1);
            // internal edges: (rows-1)*cols horizontal + rows*(cols-1) vertical
            let h_edges = (grid.rows - 1) * grid.cols;
            let v_edges = grid.rows * (grid.cols - 1);
            let per_h_edge = tw * halo * oc; // a strip of halo rows
            let per_v_edge = th * halo * oc;
            // each edge exchanged in both directions
            (2 * (h_edges * per_h_edge + v_edges * per_v_edge)) as u64 * 32
        }
        // FDSP: by construction, zero cross-tile traffic.
        Strategy::Fdsp => 0,
    }
}

/// Total cross-node traffic (bits) over the separable prefix.
pub fn prefix_comm_bits(m: &ModelSpec, prefix: usize, strategy: Strategy, k: usize) -> u64 {
    (0..prefix).map(|i| layer_comm_bits(m, i, strategy, k)).sum()
}

/// The most-square grid with `k` tiles (used to lay `k` nodes out
/// spatially for the halo analysis).
pub fn square_grid(k: usize) -> TileGrid {
    let mut rows = (k as f64).sqrt() as usize;
    while rows > 1 && !k.is_multiple_of(rows) {
        rows -= 1;
    }
    TileGrid::new(rows.max(1), k / rows.max(1))
}

/// Halo growth of a fused stack of layer blocks `[start, end)`: how many
/// extra input pixels (per side) a tile needs so that its outputs are exact
/// despite no cross-tile exchange. This is the receptive-field overhang
/// AOFL pays for (§7.4): each conv adds `k/2` scaled by the cumulative
/// stride, and pooling multiplies the stride.
pub fn fused_halo(m: &ModelSpec, start: usize, end: usize) -> usize {
    let mut halo = 0usize;
    let mut scale = 1usize;
    for b in &m.blocks[start..end.min(m.blocks.len())] {
        halo += (b.conv.kw / 2) * scale;
        scale *= b.conv.stride;
        if let Some((_, pw)) = b.pool {
            scale *= pw;
        }
    }
    halo
}

/// FLOPs for one *extended* tile of blocks `[start, end)` under AOFL-style
/// fusion: the tile is grown by the halo needed by the *remaining* fused
/// depth at each layer, so deeper fusion means more redundant computation.
pub fn fused_tile_flops(m: &ModelSpec, start: usize, end: usize, grid: TileGrid) -> u64 {
    let dims = m.block_inputs();
    let mut total = 0u64;
    let mut scale = 1usize;
    #[allow(clippy::needless_range_loop)]
    for i in start..end.min(m.blocks.len()) {
        let (_, h, w) = dims[i];
        // Halo this layer's input tile must carry so the *final* fused
        // output is exact: contributions of layers i..end.
        let halo_in = fused_halo(m, i, end);
        let th = (h / grid.rows).max(1) + 2 * halo_in / scale.max(1);
        let tw = (w / grid.cols).max(1) + 2 * halo_in / scale.max(1);
        let frac = (th * tw) as f64 / (h * w) as f64;
        total += (m.block_flops(i) as f64 * frac.min(4.0)) as u64;
        scale *= m.blocks[i].conv.stride;
        if let Some((_, pw)) = m.blocks[i].pool {
            scale *= pw;
        }
    }
    total
}

/// One row of the strategy-comparison table (used by docs/benches).
#[derive(Clone, Debug, Serialize)]
pub struct StrategyRow {
    /// Strategy compared.
    pub strategy: Strategy,
    /// Cross-node traffic over the separable prefix, megabits.
    pub prefix_comm_mbits: f64,
    /// Whether tiles/shards are independent (schedulable without
    /// cross-node synchronization).
    pub independent: bool,
}

/// Compare all four strategies on model `m` with `k` nodes.
pub fn compare_strategies(m: &ModelSpec, k: usize) -> Vec<StrategyRow> {
    [Strategy::Batch, Strategy::Channel, Strategy::SpatialHalo, Strategy::Fdsp]
        .iter()
        .map(|&s| StrategyRow {
            strategy: s,
            prefix_comm_mbits: prefix_comm_bits(m, m.separable_prefix, s, k) as f64 / 1e6,
            independent: matches!(s, Strategy::Batch | Strategy::Fdsp),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcnn_nn::zoo;

    #[test]
    fn channel_partition_matches_paper_example() {
        // §3.1: VGG16 first layer block, 2 devices: 224·224·64/2·32 bits
        // = 51.38 Mbit.
        let m = zoo::vgg16();
        let bits = layer_comm_bits(&m, 0, Strategy::Channel, 2);
        assert_eq!(bits, 51_380_224);
    }

    #[test]
    fn fdsp_and_batch_are_free() {
        let m = zoo::vgg16();
        for i in 0..m.blocks.len() {
            assert_eq!(layer_comm_bits(&m, i, Strategy::Fdsp, 8), 0);
            assert_eq!(layer_comm_bits(&m, i, Strategy::Batch, 8), 0);
        }
    }

    #[test]
    fn halo_exchange_much_cheaper_than_channel() {
        // §3.1: "spatial partition incurs much lower communication overhead
        // because only the neurons in the halos are transmitted."
        let m = zoo::vgg16();
        let halo = prefix_comm_bits(&m, 7, Strategy::SpatialHalo, 4);
        let channel = prefix_comm_bits(&m, 7, Strategy::Channel, 4);
        assert!(halo * 4 < channel, "halo {halo} vs channel {channel}");
        assert!(halo > 0);
    }

    #[test]
    fn single_node_never_communicates() {
        let m = zoo::vgg16();
        for s in [Strategy::Channel, Strategy::SpatialHalo, Strategy::Fdsp] {
            assert_eq!(prefix_comm_bits(&m, 7, s, 1), 0);
        }
    }

    #[test]
    fn square_grid_factors() {
        assert_eq!(square_grid(8).tiles(), 8);
        assert_eq!(square_grid(4), TileGrid::new(2, 2));
        assert_eq!(square_grid(9), TileGrid::new(3, 3));
        assert_eq!(square_grid(7).tiles(), 7);
    }

    #[test]
    fn fused_halo_grows_with_depth() {
        let m = zoo::vgg16();
        let mut prev = 0;
        for end in 1..=10 {
            let h = fused_halo(&m, 0, end);
            assert!(h >= prev, "halo must be monotone in fused depth");
            prev = h;
        }
        // one 3x3 layer: halo 1; two: 2 (no pooling before block 2's conv)
        assert_eq!(fused_halo(&m, 0, 1), 1);
        assert_eq!(fused_halo(&m, 0, 2), 2);
        // pooling after block 2 doubles the scale of later halos
        assert_eq!(fused_halo(&m, 0, 3), 2 + 2);
    }

    #[test]
    fn fused_tile_flops_exceed_plain_share() {
        // AOFL's overlapped tiles always cost more FLOPs than the plain
        // 1/tiles share, and the overhead grows with fused depth.
        let m = zoo::vgg16();
        let g = TileGrid::new(2, 4);
        let plain: u64 = (0..7).map(|i| m.block_flops(i)).sum::<u64>() / g.tiles() as u64;
        let fused = fused_tile_flops(&m, 0, 7, g);
        assert!(fused > plain, "fused {fused} <= plain {plain}");
        let fused_shallow = fused_tile_flops(&m, 0, 2, g);
        let plain_shallow: u64 = (0..2).map(|i| m.block_flops(i)).sum::<u64>() / g.tiles() as u64;
        let deep_overhead = fused as f64 / plain as f64;
        let shallow_overhead = fused_shallow as f64 / plain_shallow as f64;
        assert!(deep_overhead > shallow_overhead, "{deep_overhead} vs {shallow_overhead}");
    }

    #[test]
    fn compare_strategies_ranks_fdsp_best() {
        let rows = compare_strategies(&zoo::vgg16(), 8);
        let by = |s: Strategy| rows.iter().find(|r| r.strategy == s).unwrap();
        assert_eq!(by(Strategy::Fdsp).prefix_comm_mbits, 0.0);
        assert!(
            by(Strategy::Channel).prefix_comm_mbits > by(Strategy::SpatialHalo).prefix_comm_mbits
        );
        assert!(by(Strategy::Fdsp).independent);
        assert!(!by(Strategy::SpatialHalo).independent);
    }
}
