//! Differential tests for the element-wise passes between the GEMMs:
//! pooling, spatial crop and spatial paste, each against a per-element
//! reference kept in this file. Every comparison is on `to_bits()`, so a
//! NaN, a signed zero or an infinity that comes out differently fails.

use adcnn_tensor::pool::{avgpool2d, avgpool2d_into, maxpool2d, maxpool2d_into, Pool2dParams};
use adcnn_tensor::{ActBuf, Tensor};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// The per-window max-pool: every window folded in `(ki, kj)` order from
/// `NEG_INFINITY` with a strict `>`.
fn maxpool_ref(x: &[f32], (n, c, h, w): (usize, usize, usize, usize), p: Pool2dParams) -> Vec<f32> {
    let (oh, ow) = (p.out_dim(h), p.out_dim(w));
    let mut out = Vec::with_capacity(n * c * oh * ow);
    for plane in 0..n * c {
        let base = plane * h * w;
        for oi in 0..oh {
            for oj in 0..ow {
                let mut best = f32::NEG_INFINITY;
                for ki in 0..p.kernel {
                    for kj in 0..p.kernel {
                        let v = x[base + (oi * p.stride + ki) * w + (oj * p.stride + kj)];
                        if v > best {
                            best = v;
                        }
                    }
                }
                out.push(best);
            }
        }
    }
    out
}

/// The per-window average pool: sum in `(ki, kj)` order from `0.0`, then one
/// multiply by `1 / k²`.
fn avgpool_ref(x: &[f32], (n, c, h, w): (usize, usize, usize, usize), p: Pool2dParams) -> Vec<f32> {
    let (oh, ow) = (p.out_dim(h), p.out_dim(w));
    let inv = 1.0 / (p.kernel * p.kernel) as f32;
    let mut out = Vec::with_capacity(n * c * oh * ow);
    for plane in 0..n * c {
        let base = plane * h * w;
        for oi in 0..oh {
            for oj in 0..ow {
                let mut acc = 0.0f32;
                for ki in 0..p.kernel {
                    for kj in 0..p.kernel {
                        acc += x[base + (oi * p.stride + ki) * w + (oj * p.stride + kj)];
                    }
                }
                out.push(acc * inv);
            }
        }
    }
    out
}

fn check_maxpool(x: &[f32], dims: (usize, usize, usize, usize), p: Pool2dParams, what: &str) {
    let (n, c, h, w) = dims;
    let want = maxpool_ref(x, dims, p);
    let mut buf = ActBuf::new();
    maxpool2d_into(x, dims, p, &mut buf);
    assert_eq!(buf.dims(), &[n, c, p.out_dim(h), p.out_dim(w)], "{what}: dims");
    assert_eq!(bits(buf.as_slice()), bits(&want), "{what}: maxpool2d_into");
    let t = Tensor::from_vec([n, c, h, w], x.to_vec());
    assert_eq!(bits(maxpool2d(&t, p).output.as_slice()), bits(&want), "{what}: maxpool2d");
}

fn check_avgpool(x: &[f32], dims: (usize, usize, usize, usize), p: Pool2dParams, what: &str) {
    let (n, c, h, w) = dims;
    let want = avgpool_ref(x, dims, p);
    let mut buf = ActBuf::new();
    avgpool2d_into(x, dims, p, &mut buf);
    assert_eq!(buf.dims(), &[n, c, p.out_dim(h), p.out_dim(w)], "{what}: dims");
    assert_eq!(bits(buf.as_slice()), bits(&want), "{what}: avgpool2d_into");
    let t = Tensor::from_vec([n, c, h, w], x.to_vec());
    assert_eq!(bits(avgpool2d(&t, p).as_slice()), bits(&want), "{what}: avgpool2d");
}

/// Kernel / stride pairs: the served 2/2, 3/3, overlapping 3/2 and 2/1, and
/// a stride wider than the kernel.
const WINDOWS: [(usize, usize); 5] = [(2, 2), (3, 3), (3, 2), (2, 1), (2, 3)];

#[test]
fn pools_match_the_per_window_reference_on_random_planes() {
    let mut rng = StdRng::seed_from_u64(0x9001);
    // The ledger's pool shapes first, then odd extents (floor mode drops the
    // edge), a single row, a single column, and planes smaller than the
    // kernel (empty output).
    let shapes = [
        (1, 16, 16, 16),
        (1, 32, 16, 16),
        (1, 64, 32, 32),
        (2, 3, 7, 9),
        (1, 2, 5, 5),
        (1, 4, 9, 4),
        (3, 1, 1, 11),
        (1, 3, 11, 1),
        (1, 2, 2, 2),
        (1, 2, 1, 1),
    ];
    for &(n, c, h, w) in &shapes {
        let x: Vec<f32> = (0..n * c * h * w).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        for &(kernel, stride) in &WINDOWS {
            let p = Pool2dParams { kernel, stride };
            let what = format!("[{n},{c},{h},{w}] k{kernel}/s{stride}");
            check_maxpool(&x, (n, c, h, w), p, &what);
            check_avgpool(&x, (n, c, h, w), p, &what);
        }
    }
}

#[test]
fn kernel_larger_than_the_plane_gives_an_empty_output() {
    let x = vec![1.0f32; 2 * 3 * 3];
    let p = Pool2dParams::non_overlapping(4);
    let mut buf = ActBuf::new();
    maxpool2d_into(&x, (1, 2, 3, 3), p, &mut buf);
    assert_eq!(buf.dims(), &[1, 2, 0, 0]);
    assert!(buf.as_slice().is_empty());
    avgpool2d_into(&x, (1, 2, 3, 3), p, &mut buf);
    assert_eq!(buf.dims(), &[1, 2, 0, 0]);
    // Taller than the kernel but narrower: rows exist, columns do not.
    maxpool2d_into(&x, (1, 1, 6, 3), p, &mut buf);
    assert_eq!(buf.dims(), &[1, 1, 1, 0]);
    assert!(buf.as_slice().is_empty());
}

#[test]
fn maxpool_keeps_nan_signed_zero_and_infinity_bits() {
    let nan = f32::NAN;
    let odd_nan = f32::from_bits(0x7fc0_00a5);
    let ninf = f32::NEG_INFINITY;
    // Plane 0: NaNs scattered among finite values (a NaN never wins a
    // strict `>`, and never blocks a later finite value).
    // Plane 1: -0.0 next to +0.0 in both orders (the first one met stays).
    // Plane 2: all -inf. Plane 3: all NaN (the fold never leaves -inf).
    // Plane 4: +inf, -inf and NaN mixed.
    #[rustfmt::skip]
    let planes: [[f32; 16]; 5] = [
        [nan, 1.0, 2.0, nan,
         0.5, nan, nan, 3.0,
         nan, nan, -1.0, nan,
         nan, odd_nan, nan, -2.0],
        [-0.0, 0.0, 0.0, -0.0,
         -0.0, -0.0, 0.0, 0.0,
         0.0, -0.0, -0.0, -0.0,
         -1.0, -0.0, -0.0, -1.0],
        [ninf; 16],
        [nan, odd_nan, nan, nan,
         odd_nan, nan, nan, odd_nan,
         nan, nan, odd_nan, nan,
         nan, nan, nan, odd_nan],
        [f32::INFINITY, ninf, nan, ninf,
         ninf, nan, ninf, ninf,
         ninf, f32::INFINITY, f32::MAX, nan,
         nan, ninf, f32::MIN, ninf],
    ];
    let x: Vec<f32> = planes.iter().flatten().copied().collect();
    for &(kernel, stride) in &WINDOWS {
        let p = Pool2dParams { kernel, stride };
        check_maxpool(&x, (1, 5, 4, 4), p, &format!("special planes k{kernel}/s{stride}"));
    }
    // Spot values the reference itself must produce, so a wrong copy of the
    // reference cannot hide a wrong kernel.
    let mut buf = ActBuf::new();
    maxpool2d_into(&x, (1, 5, 4, 4), Pool2dParams::non_overlapping(2), &mut buf);
    let o = buf.as_slice();
    assert_eq!(o[0].to_bits(), 1.0f32.to_bits(), "NaN must not win or block");
    assert_eq!(o[4].to_bits(), (-0.0f32).to_bits(), "-0.0 met first stays");
    assert_eq!(o[5].to_bits(), 0.0f32.to_bits(), "+0.0 met first stays");
    assert!(o[8..12].iter().all(|v| v.to_bits() == ninf.to_bits()), "all -inf plane");
    assert!(o[12..16].iter().all(|v| v.to_bits() == ninf.to_bits()), "all-NaN plane");
}

#[test]
fn avgpool_keeps_signed_zero_and_infinity_bits() {
    #[rustfmt::skip]
    let planes: [[f32; 16]; 3] = [
        [-0.0, -0.0, 0.0, -0.0,
         -0.0, -0.0, -0.0, -0.0,
         1.0, -1.0, f32::MIN_POSITIVE, -f32::MIN_POSITIVE,
         -1.0, 1.0, 1e-45, 1e-45],
        [f32::INFINITY, 1.0, f32::NEG_INFINITY, 1.0,
         1.0, 1.0, 1.0, 1.0,
         f32::MAX, f32::MAX, f32::MIN, f32::MIN,
         f32::MAX, f32::MAX, 1.0, 2.0],
        [0.1, 0.2, 0.3, 0.4,
         0.7, 0.6, 0.5, 0.9,
         1e-3, 1e3, 1e-6, 1e6,
         3.3, -3.3, 1e-9, 7.0],
    ];
    let x: Vec<f32> = planes.iter().flatten().copied().collect();
    for &(kernel, stride) in &WINDOWS {
        let p = Pool2dParams { kernel, stride };
        check_avgpool(&x, (1, 3, 4, 4), p, &format!("special planes k{kernel}/s{stride}"));
    }
}

/// Per-element crop: zero-filled where the window leaves the map.
fn crop_ref(t: &Tensor, r0: isize, c0: isize, rows: usize, cols: usize) -> Vec<f32> {
    let (n, c, h, w) = t.shape().nchw();
    let x = t.as_slice();
    let mut out = vec![0.0f32; n * c * rows * cols];
    for plane in 0..n * c {
        for ri in 0..rows {
            let sr = r0 + ri as isize;
            if sr < 0 || sr >= h as isize {
                continue;
            }
            for cj in 0..cols {
                let sc = c0 + cj as isize;
                if sc < 0 || sc >= w as isize {
                    continue;
                }
                out[(plane * rows + ri) * cols + cj] =
                    x[(plane * h + sr as usize) * w + sc as usize];
            }
        }
    }
    out
}

/// Per-element paste: the part of the patch that overhangs is dropped.
fn paste_ref(dst: &Tensor, patch: &Tensor, r0: usize, c0: usize) -> Vec<f32> {
    let (n, c, h, w) = dst.shape().nchw();
    let (_, _, ph, pw) = patch.shape().nchw();
    let mut out = dst.as_slice().to_vec();
    let src = patch.as_slice();
    for plane in 0..n * c {
        for ri in 0..ph {
            for cj in 0..pw {
                let (dr, dc) = (r0 + ri, c0 + cj);
                if dr < h && dc < w {
                    out[(plane * h + dr) * w + dc] = src[(plane * ph + ri) * pw + cj];
                }
            }
        }
    }
    out
}

/// A map whose every element is distinct and non-zero, with a NaN and a
/// -0.0 planted so a copy that goes through arithmetic would show.
fn marked_map(dims: [usize; 4]) -> Tensor {
    let mut t = Tensor::from_fn(dims, |i| (i + 1) as f32 * 0.25);
    let n = t.numel();
    t.as_mut_slice()[n / 3] = f32::from_bits(0x7fc0_0123);
    t.as_mut_slice()[n / 2] = -0.0;
    t
}

#[test]
fn crop_matches_the_per_element_reference() {
    let t = marked_map([2, 3, 6, 5]);
    // (r0, c0, rows, cols): inside, each side overhanging, negative
    // origins, wider / taller than the map, fully outside, empty.
    let windows: [(isize, isize, usize, usize); 16] = [
        (0, 0, 6, 5),
        (1, 2, 3, 2),
        (-2, 0, 4, 5),
        (0, -3, 6, 4),
        (4, 0, 5, 5),
        (0, 3, 6, 6),
        (-1, -1, 8, 7),
        (-3, -4, 3, 4),
        (-3, -4, 4, 5),
        (6, 0, 2, 2),
        (0, 5, 2, 2),
        (-10, -10, 3, 3),
        (2, -2, 1, 20),
        (-2, 2, 20, 1),
        (1, 1, 0, 3),
        (1, 1, 3, 0),
    ];
    for &(r0, c0, rows, cols) in &windows {
        let got = t.crop_spatial(r0, c0, rows, cols);
        assert_eq!(got.dims(), &[2, 3, rows, cols], "crop ({r0},{c0}) {rows}x{cols}: dims");
        assert_eq!(
            bits(got.as_slice()),
            bits(&crop_ref(&t, r0, c0, rows, cols)),
            "crop ({r0},{c0}) {rows}x{cols}"
        );
    }
}

#[test]
fn paste_matches_the_per_element_reference() {
    let dst = marked_map([2, 3, 6, 5]);
    // (patch rows, patch cols, r0, c0): inside, overhanging the bottom, the
    // right, both, wider and taller than the map, starting on and past the
    // last row / column, and empty patches.
    let cases: [(usize, usize, usize, usize); 14] = [
        (6, 5, 0, 0),
        (3, 2, 1, 2),
        (3, 5, 4, 0),
        (6, 3, 0, 3),
        (4, 4, 4, 3),
        (2, 9, 1, 0),
        (9, 2, 0, 1),
        (8, 8, 0, 0),
        (2, 2, 5, 4),
        (2, 2, 6, 0),
        (2, 2, 0, 5),
        (2, 2, 40, 40),
        (0, 3, 1, 1),
        (3, 0, 1, 1),
    ];
    for &(ph, pw, r0, c0) in &cases {
        let patch = Tensor::from_fn([2, 3, ph, pw], |i| -((i + 1) as f32));
        let mut got = dst.clone();
        got.paste_spatial(&patch, r0, c0);
        assert_eq!(
            bits(got.as_slice()),
            bits(&paste_ref(&dst, &patch, r0, c0)),
            "paste {ph}x{pw} at ({r0},{c0})"
        );
    }
}

#[test]
fn crop_then_paste_rebuilds_the_served_maps() {
    // The two served geometries: hub tile [1,16,8,8] in [1,16,16,16] and
    // VGG tile [1,128,8,8] in [1,128,16,16], 2x2 grids.
    let mut rng = StdRng::seed_from_u64(0x9002);
    for c in [16usize, 128] {
        let map = Tensor::randn([1, c, 16, 16], 1.0, &mut rng);
        let mut rebuilt = Tensor::zeros([1, c, 16, 16]);
        for (gr, gc) in [(0usize, 0usize), (0, 1), (1, 0), (1, 1)] {
            let tile = map.crop_spatial((gr * 8) as isize, (gc * 8) as isize, 8, 8);
            assert_eq!(
                bits(tile.as_slice()),
                bits(&crop_ref(&map, (gr * 8) as isize, (gc * 8) as isize, 8, 8))
            );
            rebuilt.paste_spatial(&tile, gr * 8, gc * 8);
        }
        assert_eq!(bits(rebuilt.as_slice()), bits(map.as_slice()));
    }
}

#[test]
#[should_panic(expected = "N/C mismatch")]
fn paste_rejects_a_patch_with_another_channel_count() {
    let mut dst = Tensor::zeros([1, 3, 4, 4]);
    dst.paste_spatial(&Tensor::zeros([1, 4, 2, 2]), 0, 0);
}
