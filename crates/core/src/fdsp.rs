//! Fully Decomposable Spatial Partition (FDSP), §3.2 of the paper.
//!
//! An input feature map is cut into an `rows × cols` grid of tiles. Each
//! tile is then processed **independently** through the separable layer
//! blocks: convolutions treat the tile border like an image border (zero
//! padding), so no halo exchange ever happens. The price is a small amount
//! of error in the border region, which progressive retraining absorbs.
//!
//! Implementation insight: extracting the tiles and stacking them along the
//! batch dimension makes a plain batched convolution with `pad = k/2`
//! *exactly* the FDSP computation — every tile border receives zero padding
//! automatically. [`TileGrid::stack`] / [`TileGrid::unstack_assemble`]
//! implement that round trip.

use adcnn_tensor::Tensor;
use serde::Serialize;

/// A spatial partition grid (`rows × cols` tiles).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub struct TileGrid {
    /// Number of tile rows.
    pub rows: usize,
    /// Number of tile columns.
    pub cols: usize,
}

/// One tile's position and spatial bounds within the full map.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct TileRect {
    /// Row index in the grid.
    pub grid_r: usize,
    /// Column index in the grid.
    pub grid_c: usize,
    /// First pixel row covered (inclusive).
    pub r0: usize,
    /// First pixel column covered (inclusive).
    pub c0: usize,
    /// Tile height in pixels.
    pub h: usize,
    /// Tile width in pixels.
    pub w: usize,
}

impl TileGrid {
    /// Construct a grid; panics on zero dimensions.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "grid must be non-empty");
        TileGrid { rows, cols }
    }

    /// Total number of tiles `D = rows · cols` (the paper's tile count in
    /// Equation 1).
    #[inline]
    pub fn tiles(&self) -> usize {
        self.rows * self.cols
    }

    /// Flatten a `(grid_r, grid_c)` position into the paper's `t_id`
    /// (row-major).
    #[inline]
    pub fn tile_id(&self, grid_r: usize, grid_c: usize) -> usize {
        debug_assert!(grid_r < self.rows && grid_c < self.cols);
        grid_r * self.cols + grid_c
    }

    /// Inverse of [`TileGrid::tile_id`].
    #[inline]
    pub fn tile_pos(&self, tile_id: usize) -> (usize, usize) {
        debug_assert!(tile_id < self.tiles());
        (tile_id / self.cols, tile_id % self.cols)
    }

    /// The rectangle of tile `tile_id` (row-major) in an `h × w` map. When
    /// the map does not divide evenly the remainder pixels are spread over
    /// the leading tiles (sizes differ by at most one).
    pub fn rect(&self, h: usize, w: usize, tile_id: usize) -> TileRect {
        assert!(h >= self.rows && w >= self.cols, "map {h}x{w} smaller than grid");
        let (grid_r, grid_c) = self.tile_pos(tile_id);
        let (r0, r1) = (grid_r * h / self.rows, (grid_r + 1) * h / self.rows);
        let (c0, c1) = (grid_c * w / self.cols, (grid_c + 1) * w / self.cols);
        TileRect { grid_r, grid_c, r0, c0, h: r1 - r0, w: c1 - c0 }
    }

    /// The tile rectangles covering an `h × w` map, row-major.
    pub fn rects(&self, h: usize, w: usize) -> Vec<TileRect> {
        (0..self.tiles()).map(|t| self.rect(h, w, t)).collect()
    }

    /// True if an `h × w` map splits into equal-size tiles (required for
    /// batch stacking).
    pub fn divides(&self, h: usize, w: usize) -> bool {
        h.is_multiple_of(self.rows) && w.is_multiple_of(self.cols)
    }

    /// Copy tile `tile_id` (row-major) out of a `[N, C, H, W]` tensor.
    pub fn extract_tile(&self, x: &Tensor, tile_id: usize) -> Tensor {
        let (_, _, h, w) = x.shape().nchw();
        let r = self.rect(h, w, tile_id);
        x.crop_spatial(r.r0 as isize, r.c0 as isize, r.h, r.w)
    }

    /// Extract the tiles of a `[N, C, H, W]` tensor as separate tensors,
    /// row-major tile order.
    pub fn extract(&self, x: &Tensor) -> Vec<Tensor> {
        (0..self.tiles()).map(|t| self.extract_tile(x, t)).collect()
    }

    /// Stack the tiles of a `[N, C, H, W]` tensor into a single
    /// `[N·D, C, H/rows, W/cols]` tensor (tile-major: all tiles of image 0,
    /// then image 1, …). Panics unless the grid divides the map evenly.
    pub fn stack(&self, x: &Tensor) -> Tensor {
        let (n, c, h, w) = x.shape().nchw();
        assert!(self.divides(h, w), "{h}x{w} not divisible by {}x{} grid", self.rows, self.cols);
        let th = h / self.rows;
        let tw = w / self.cols;
        let d = self.tiles();
        let mut out = Tensor::zeros([n * d, c, th, tw]);
        for ni in 0..n {
            for (t, rect) in self.rects(h, w).iter().enumerate() {
                for ci in 0..c {
                    for r in 0..th {
                        for cc in 0..tw {
                            let v = x.at(&[ni, ci, rect.r0 + r, rect.c0 + cc]);
                            *out.at_mut(&[ni * d + t, ci, r, cc]) = v;
                        }
                    }
                }
            }
        }
        out
    }

    /// Inverse of [`TileGrid::stack`] after the tiles have been shrunk by a
    /// spatial factor `(fh, fw)` (pooling/striding in the separable prefix):
    /// takes `[N·D, C, th, tw]` and reassembles `[N, C, th·rows, tw·cols]`.
    pub fn unstack_assemble(&self, tiles: &Tensor) -> Tensor {
        let (nd, c, th, tw) = tiles.shape().nchw();
        let d = self.tiles();
        assert_eq!(nd % d, 0, "batch {nd} not a multiple of tile count {d}");
        let n = nd / d;
        let mut out = Tensor::zeros([n, c, th * self.rows, tw * self.cols]);
        for ni in 0..n {
            for t in 0..d {
                let (gr, gc) = self.tile_pos(t);
                for ci in 0..c {
                    for r in 0..th {
                        for cc in 0..tw {
                            let v = tiles.at(&[ni * d + t, ci, r, cc]);
                            *out.at_mut(&[ni, ci, gr * th + r, gc * tw + cc]) = v;
                        }
                    }
                }
            }
        }
        out
    }

    /// Adjoint of [`TileGrid::unstack_assemble`]: split a full gradient map
    /// `[N, C, H, W]` back into stacked tile gradients `[N·D, C, th, tw]`.
    /// Used by the FDSP retraining backward pass.
    pub fn stack_gradient(&self, dy: &Tensor) -> Tensor {
        // Splitting a map into tiles is a permutation, so the adjoint is the
        // same data movement as `stack`.
        self.stack(dy)
    }

    /// All grids the paper evaluates in Figure 10.
    pub fn paper_options() -> Vec<TileGrid> {
        vec![
            TileGrid::new(2, 2),
            TileGrid::new(3, 3),
            TileGrid::new(4, 4),
            TileGrid::new(4, 8),
            TileGrid::new(8, 8),
        ]
    }
}

impl std::fmt::Display for TileGrid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcnn_tensor::conv::{conv2d, Conv2dParams};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn rects_cover_map_exactly() {
        let g = TileGrid::new(3, 4);
        let rects = g.rects(10, 13);
        assert_eq!(rects.len(), 12);
        let area: usize = rects.iter().map(|r| r.h * r.w).sum();
        assert_eq!(area, 130);
        // no overlap: mark every covered pixel once
        let mut seen = [false; 130];
        for r in &rects {
            for i in r.r0..r.r0 + r.h {
                for j in r.c0..r.c0 + r.w {
                    assert!(!seen[i * 13 + j], "overlap at ({i},{j})");
                    seen[i * 13 + j] = true;
                }
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn uneven_split_sizes_differ_by_at_most_one() {
        let g = TileGrid::new(3, 3);
        for r in g.rects(10, 11) {
            assert!(r.h == 3 || r.h == 4);
            assert!(r.w == 3 || r.w == 4);
        }
    }

    #[test]
    fn tile_id_roundtrip() {
        let g = TileGrid::new(4, 8);
        for t in 0..g.tiles() {
            let (r, c) = g.tile_pos(t);
            assert_eq!(g.tile_id(r, c), t);
        }
    }

    #[test]
    fn stack_unstack_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::randn([2, 3, 8, 8], 1.0, &mut rng);
        let g = TileGrid::new(2, 4);
        let stacked = g.stack(&x);
        assert_eq!(stacked.dims(), &[16, 3, 4, 2]);
        let back = g.unstack_assemble(&stacked);
        assert!(back.approx_eq(&x, 0.0));
    }

    #[test]
    fn extract_matches_stack() {
        let mut rng = StdRng::seed_from_u64(2);
        let x = Tensor::randn([1, 2, 6, 6], 1.0, &mut rng);
        let g = TileGrid::new(2, 2);
        let tiles = g.extract(&x);
        let stacked = g.stack(&x);
        for (t, tile) in tiles.iter().enumerate() {
            for ci in 0..2 {
                for r in 0..3 {
                    for c in 0..3 {
                        assert_eq!(tile.at(&[0, ci, r, c]), stacked.at(&[t, ci, r, c]));
                    }
                }
            }
        }
    }

    /// The central FDSP property (paper §3.2): processing tiles
    /// independently with zero padding equals the full convolution
    /// everywhere except within the kernel's halo of the internal tile
    /// borders.
    #[test]
    fn fdsp_conv_exact_outside_halo() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::randn([1, 2, 12, 12], 1.0, &mut rng);
        let w = Tensor::randn([4, 2, 3, 3], 0.5, &mut rng);
        let p = Conv2dParams::same(3);
        let full = conv2d(&x, &w, &[], p);

        let g = TileGrid::new(2, 2);
        let stacked = g.stack(&x);
        let tiled_out = conv2d(&stacked, &w, &[], p);
        let fdsp = g.unstack_assemble(&tiled_out);

        // The internal cut runs between rows 5|6 and cols 5|6; with a 3x3
        // kernel (halo = 1) only pixels touching the cut — rows/cols 5 and 6
        // — can differ.
        let halo = 1usize;
        let (_, c, h, wdt) = full.shape().nchw();
        let mut interior_checked = 0;
        for ci in 0..c {
            for r in 0..h {
                for cc in 0..wdt {
                    let d_r = if r < 6 { 6 - 1 - r } else { r - 6 };
                    let d_c = if cc < 6 { 6 - 1 - cc } else { cc - 6 };
                    if d_r >= halo && d_c >= halo {
                        let a = full.at(&[0, ci, r, cc]);
                        let b = fdsp.at(&[0, ci, r, cc]);
                        assert!(
                            (a - b).abs() < 1e-4,
                            "interior mismatch at ({ci},{r},{cc}): {a} vs {b}"
                        );
                        interior_checked += 1;
                    }
                }
            }
        }
        assert!(interior_checked > 0);
        // And the border region must actually differ somewhere, otherwise
        // the test proves nothing.
        assert!(!fdsp.approx_eq(&full, 1e-4));
    }

    #[test]
    fn paper_grid_options() {
        let opts = TileGrid::paper_options();
        assert_eq!(opts.len(), 5);
        assert_eq!(opts[4].tiles(), 64);
        assert_eq!(opts[3].to_string(), "4x8");
    }

    #[test]
    #[should_panic]
    fn stack_rejects_indivisible() {
        let x = Tensor::zeros([1, 1, 7, 8]);
        TileGrid::new(2, 2).stack(&x);
    }

    proptest! {
        #[test]
        fn prop_stack_roundtrip(rows in 1usize..4, cols in 1usize..4, th in 1usize..5, tw in 1usize..5, n in 1usize..3) {
            let h = rows * th;
            let w = cols * tw;
            let x = Tensor::from_fn([n, 2, h, w], |i| (i % 97) as f32 * 0.1);
            let g = TileGrid::new(rows, cols);
            let back = g.unstack_assemble(&g.stack(&x));
            prop_assert!(back.approx_eq(&x, 0.0));
        }

        #[test]
        fn prop_rects_partition(rows in 1usize..6, cols in 1usize..6, h in 6usize..40, w in 6usize..40) {
            prop_assume!(h >= rows && w >= cols);
            let g = TileGrid::new(rows, cols);
            let area: usize = g.rects(h, w).iter().map(|r| r.h * r.w).sum();
            prop_assert_eq!(area, h * w);
        }
    }
}
