//! Randomized equivalence tests for the packed inference kernels.
//!
//! The packed GEMM and the scratch-arena conv path must agree with naive
//! reference implementations across random shapes — including the awkward
//! ones: single rows, panel-tail widths, stride 2, 1x1 kernels, and
//! degenerate zero-sized outputs — and with *themselves*, bit for bit,
//! whatever the position of an element in the blocking: a sub-range of rows
//! or columns, an FDSP tile of an image, either public entry, a reused
//! arena. The two transposed products of the backward pass (`gemm_bt`,
//! `gemm_at`) are held to the same naive reference and the same row
//! sub-range rule. A convolution that reads its input in place (stride 1,
//! output rows of whole 16-lane groups) must return the bits of the panel
//! path, with or without a BatchNorm affine in its epilogue. Plain
//! seeded-rand loops (not proptest) so the shapes exercised are identical
//! on every run and every platform.

use adcnn_tensor::conv::{conv2d, conv2d_affine_into, conv2d_into, Conv2dParams};
use adcnn_tensor::gemm::{gemm, gemm_at, gemm_bt, gemm_fused, FusedAct};
use adcnn_tensor::{ActBuf, Scratch, Tensor};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn rand_vec(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect()
}

/// Naive triple-loop reference: `c = a·b + beta·c`.
fn gemm_ref(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32], beta: f32) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            c[i * n + j] = acc + beta * c[i * n + j];
        }
    }
}

fn max_rel_err(got: &[f32], want: &[f32]) -> f32 {
    got.iter().zip(want).map(|(&g, &w)| (g - w).abs() / w.abs().max(1.0)).fold(0.0, f32::max)
}

#[test]
fn packed_gemm_matches_naive_across_random_shapes() {
    let mut rng = StdRng::seed_from_u64(0xADC);
    for trial in 0..40 {
        let m = rng.gen_range(1..40);
        let k = rng.gen_range(1..90);
        let n = rng.gen_range(1..70);
        let a = rand_vec(&mut rng, m * k);
        let b = rand_vec(&mut rng, k * n);
        let beta = [0.0f32, 1.0, -0.5][trial % 3];
        let mut want = rand_vec(&mut rng, m * n);
        let mut got = want.clone();
        gemm_ref(m, k, n, &a, &b, &mut want, beta);
        gemm(m, k, n, &a, &b, &mut got, beta);
        let err = max_rel_err(&got, &want);
        assert!(err < 1e-4, "trial {trial} ({m}x{k}x{n}, beta {beta}): rel err {err}");
    }
}

#[test]
fn packed_gemm_matches_naive_on_large_parallel_shapes() {
    // Shapes big enough to cross the parallel-dispatch threshold, including
    // the m == 1 split-N case.
    let mut rng = StdRng::seed_from_u64(0xBEE);
    for &(m, k, n) in &[(1usize, 512usize, 300usize), (67, 129, 95), (128, 64, 33), (4, 300, 256)] {
        let a = rand_vec(&mut rng, m * k);
        let b = rand_vec(&mut rng, k * n);
        let mut want = vec![0.0f32; m * n];
        let mut got = vec![0.0f32; m * n];
        gemm_ref(m, k, n, &a, &b, &mut want, 0.0);
        gemm(m, k, n, &a, &b, &mut got, 0.0);
        let err = max_rel_err(&got, &want);
        assert!(err < 1e-3, "({m}x{k}x{n}): rel err {err}");
    }
}

#[test]
fn fused_gemm_matches_naive_plus_epilogue() {
    let mut rng = StdRng::seed_from_u64(0xCAB);
    let mut scratch = Scratch::new();
    for trial in 0..20 {
        let m = rng.gen_range(1..20);
        let k = rng.gen_range(1..60);
        let n = rng.gen_range(1..50);
        let a = rand_vec(&mut rng, m * k);
        let b = rand_vec(&mut rng, k * n);
        let bias = rand_vec(&mut rng, m);
        let act =
            [FusedAct::Identity, FusedAct::Relu, FusedAct::Clipped { lo: 0.2, hi: 1.4 }][trial % 3];
        let mut want = vec![0.0f32; m * n];
        gemm_ref(m, k, n, &a, &b, &mut want, 0.0);
        for i in 0..m {
            for v in &mut want[i * n..(i + 1) * n] {
                *v = act.apply(*v + bias[i]);
            }
        }
        let mut got = vec![0.0f32; m * n];
        gemm_fused(m, k, n, &a, &b, &mut got, Some(&bias), act, &mut scratch);
        let err = max_rel_err(&got, &want);
        assert!(err < 1e-4, "trial {trial} ({m}x{k}x{n}, {act:?}): rel err {err}");
    }
}

/// Naive direct convolution (zero padding), the ground truth for conv2d.
fn conv_ref(x: &Tensor, w: &Tensor, bias: &[f32], p: Conv2dParams) -> Tensor {
    let (n, ic, h, ww) = x.shape().nchw();
    let oc = w.dims()[0];
    let oh = p.out_dim(h);
    let ow = p.out_dim(ww);
    let mut out = Tensor::zeros([n, oc, oh, ow]);
    let xs = x.as_slice();
    let ws = w.as_slice();
    let os = out.as_mut_slice();
    for img in 0..n {
        for o in 0..oc {
            for oi in 0..oh {
                for oj in 0..ow {
                    let mut acc = if bias.is_empty() { 0.0 } else { bias[o] };
                    for c in 0..ic {
                        for ki in 0..p.kernel {
                            for kj in 0..p.kernel {
                                let si = (oi * p.stride + ki) as isize - p.pad as isize;
                                let sj = (oj * p.stride + kj) as isize - p.pad as isize;
                                if si < 0 || sj < 0 || si >= h as isize || sj >= ww as isize {
                                    continue;
                                }
                                let xv = xs[((img * ic + c) * h + si as usize) * ww + sj as usize];
                                let wv = ws[((o * ic + c) * p.kernel + ki) * p.kernel + kj];
                                acc += xv * wv;
                            }
                        }
                    }
                    os[((img * oc + o) * oh + oi) * ow + oj] = acc;
                }
            }
        }
    }
    out
}

#[test]
fn conv2d_matches_direct_reference_across_shapes() {
    let mut rng = StdRng::seed_from_u64(0xD0C);
    // (ic, oc, h, w, kernel, stride, pad) — includes stride 2, kernel 1,
    // pad 0, and asymmetric spatial dims ...
    let mut cases = vec![
        (1usize, 1usize, 5usize, 5usize, 3usize, 1usize, 1usize),
        (3, 8, 8, 8, 3, 1, 1),
        (2, 4, 9, 7, 3, 2, 1),
        (4, 6, 8, 8, 1, 1, 0),
        (2, 3, 11, 5, 5, 2, 2),
        (3, 2, 6, 6, 3, 1, 0),
    ];
    // ... and every kernel/stride/pad combination on an 11x13 image, whose
    // output counts (143, 42, 63, 20, ...) all leave a ragged last panel.
    for kernel in [1, 3, 5] {
        for stride in [1, 2] {
            for pad in [0, 1, 2] {
                cases.push((3, 7, 11, 13, kernel, stride, pad));
            }
        }
    }
    for &(ic, oc, h, w, kernel, stride, pad) in &cases {
        let p = Conv2dParams { kernel, stride, pad };
        for n in [1usize, 2] {
            let x = Tensor::randn([n, ic, h, w], 1.0, &mut rng);
            let wt = Tensor::randn([oc, ic, kernel, kernel], 0.5, &mut rng);
            let bias = rand_vec(&mut rng, oc);
            let want = conv_ref(&x, &wt, &bias, p);
            let got = conv2d(&x, &wt, &bias, p);
            assert_eq!(got.dims(), want.dims());
            let err = max_rel_err(got.as_slice(), want.as_slice());
            assert!(err < 1e-4, "{ic}->{oc} {h}x{w} k{kernel} s{stride} p{pad}: err {err}");
        }
    }
}

#[test]
fn conv2d_into_matches_public_conv2d_across_shapes() {
    let mut rng = StdRng::seed_from_u64(0xF00);
    let mut scratch = Scratch::new();
    let mut out = ActBuf::new();
    let cases = [
        (1usize, 2usize, 6usize, 6usize, 3usize, 1usize, 1usize),
        (3, 5, 7, 9, 3, 2, 1),
        (2, 2, 5, 5, 1, 1, 0),
        (2, 3, 10, 10, 5, 2, 2),
    ];
    for &(ic, oc, h, w, kernel, stride, pad) in &cases {
        let p = Conv2dParams { kernel, stride, pad };
        let x = Tensor::randn([1, ic, h, w], 1.0, &mut rng);
        let wt = Tensor::randn([oc, ic, kernel, kernel], 0.5, &mut rng);
        let bias = rand_vec(&mut rng, oc);
        let mut want = conv2d(&x, &wt, &bias, p);
        for v in want.as_mut_slice() {
            *v = v.max(0.0);
        }
        conv2d_into(
            x.as_slice(),
            (1, ic, h, w),
            &wt,
            &bias,
            p,
            FusedAct::Relu,
            &mut scratch,
            &mut out,
        );
        assert_eq!(out.dims(), want.dims());
        let err = max_rel_err(out.as_slice(), want.as_slice());
        assert!(err < 1e-5, "{ic}->{oc} {h}x{w} k{kernel} s{stride} p{pad}: err {err}");
    }
}

#[test]
fn degenerate_zero_output_shapes_are_consistent() {
    // Kernel larger than the padded input: out_dim == 0. Both paths must
    // agree on the (empty) result instead of panicking.
    let mut rng = StdRng::seed_from_u64(0xE00);
    let p = Conv2dParams { kernel: 5, stride: 1, pad: 0 };
    let x = Tensor::randn([1, 2, 3, 3], 1.0, &mut rng);
    let wt = Tensor::randn([4, 2, 5, 5], 0.5, &mut rng);
    let got = conv2d(&x, &wt, &[], p);
    assert_eq!(got.dims(), &[1, 4, 0, 0]);
    let mut scratch = Scratch::new();
    let mut out = ActBuf::new();
    conv2d_into(
        x.as_slice(),
        (1, 2, 3, 3),
        &wt,
        &[],
        p,
        FusedAct::Identity,
        &mut scratch,
        &mut out,
    );
    assert_eq!(out.dims(), &[1, 4, 0, 0]);
    assert_eq!(out.numel(), 0);

    // Zero-k GEMM: m×0 · 0×n must yield the epilogue of a zero matrix.
    let mut c = vec![7.0f32; 6];
    gemm(2, 0, 3, &[], &[], &mut c, 0.0);
    assert_eq!(c, vec![0.0; 6]);
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Random values with signed zeros mixed in.
fn rand_vec_with_zeros(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| match rng.gen_range(0..16) {
            0 => -0.0,
            1 => 0.0,
            _ => rng.gen_range(-2.0..2.0),
        })
        .collect()
}

const ACTS: [FusedAct; 3] =
    [FusedAct::Identity, FusedAct::Relu, FusedAct::Clipped { lo: 0.0, hi: 1.5 }];

#[test]
fn gemm_sub_ranges_reproduce_the_full_product_bit_for_bit() {
    // Every MR (6) / NR (16) / KC (256) remainder, then the five im2col
    // shapes VGG16 blocks 1-2 serve. Row ranges hold at least two rows:
    // m == 1 is the fully-connected kernel, which has its own order.
    let shapes = [
        (2usize, 1usize, 1usize),
        (5, 27, 15),
        (6, 256, 16),
        (7, 257, 17),
        (13, 513, 33),
        (12, 300, 48),
        (64, 27, 1024),
        (64, 576, 1024),
        (128, 576, 256),
        (128, 1152, 256),
        (128, 1152, 64),
    ];
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut scratch = Scratch::new();
    for (si, &(m, k, n)) in shapes.iter().enumerate() {
        let a = rand_vec_with_zeros(&mut rng, m * k);
        let b = rand_vec_with_zeros(&mut rng, k * n);
        let bias = rand_vec_with_zeros(&mut rng, m);
        let act = ACTS[si % 3];
        let mut full = vec![f32::NAN; m * n];
        gemm_fused(m, k, n, &a, &b, &mut full, Some(&bias), act, &mut scratch);

        for _ in 0..3 {
            let r0 = rng.gen_range(0..m - 1);
            let r1 = rng.gen_range(r0 + 2..m + 1);
            let mut got = vec![f32::NAN; (r1 - r0) * n];
            let (sub_a, sub_bias) = (&a[r0 * k..r1 * k], &bias[r0..r1]);
            gemm_fused(r1 - r0, k, n, sub_a, &b, &mut got, Some(sub_bias), act, &mut scratch);
            assert_eq!(
                bits(&got),
                bits(&full[r0 * n..r1 * n]),
                "({m},{k},{n}) {act:?} rows {r0}..{r1}"
            );

            let c0 = rng.gen_range(0..n);
            let c1 = rng.gen_range(c0 + 1..n + 1);
            let nc = c1 - c0;
            let sub_b: Vec<f32> = b.chunks(n).flat_map(|row| row[c0..c1].iter().copied()).collect();
            let mut got = vec![f32::NAN; m * nc];
            gemm_fused(m, k, nc, &a, &sub_b, &mut got, Some(&bias), act, &mut scratch);
            let want: Vec<f32> =
                full.chunks(n).flat_map(|row| row[c0..c1].iter().copied()).collect();
            assert_eq!(bits(&got), bits(&want), "({m},{k},{n}) {act:?} cols {c0}..{c1}");
        }

        // The scratch-less entry runs the same core: identical bits.
        if act == FusedAct::Identity {
            let mut plain = vec![f32::NAN; m * n];
            gemm(m, k, n, &a, &b, &mut plain, 0.0);
            let mut unbiased = vec![f32::NAN; m * n];
            gemm_fused(m, k, n, &a, &b, &mut unbiased, None, act, &mut scratch);
            assert_eq!(bits(&plain), bits(&unbiased), "({m},{k},{n}) gemm vs gemm_fused");
        }
    }
}

#[test]
fn fdsp_tile_conv_reproduces_the_full_image_bit_for_bit() {
    // 32 input channels: K = 288 crosses a k-block boundary. A 2x2 FDSP
    // grid of 12x12 tiles over a 24x24 image; a tile output whose 3x3
    // receptive field stays inside the tile (or in the image's own zero
    // border) sees the same patch as the full image, so must get the same
    // bits although it sits in another column of another-sized GEMM.
    let mut rng = StdRng::seed_from_u64(0xFD5B);
    let (ic, oc, hw, t) = (32usize, 10usize, 24usize, 12usize);
    let p = Conv2dParams::same(3);
    let x = Tensor::randn([1, ic, hw, hw], 1.0, &mut rng);
    let wt = Tensor::randn([oc, ic, 3, 3], 0.2, &mut rng);
    let bias = rand_vec(&mut rng, oc);
    let mut scratch = Scratch::new();
    let (mut full, mut tile_out) = (ActBuf::new(), ActBuf::new());
    for &act in &ACTS {
        conv2d_into(x.as_slice(), (1, ic, hw, hw), &wt, &bias, p, act, &mut scratch, &mut full);
        for (gr, gc) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            let tile = x.crop_spatial((gr * t) as isize, (gc * t) as isize, t, t);
            conv2d_into(
                tile.as_slice(),
                (1, ic, t, t),
                &wt,
                &bias,
                p,
                act,
                &mut scratch,
                &mut tile_out,
            );
            let mut checked = 0;
            for o in 0..oc {
                for i in 0..t {
                    for j in 0..t {
                        let (fi, fj) = (gr * t + i, gc * t + j);
                        let inside = |local: usize, global: usize| {
                            (local > 0 || global == 0) && (local + 1 < t || global + 1 == hw)
                        };
                        if !(inside(i, fi) && inside(j, fj)) {
                            continue;
                        }
                        let got = tile_out.as_slice()[(o * t + i) * t + j];
                        let want = full.as_slice()[(o * hw + fi) * hw + fj];
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{act:?} tile ({gr},{gc}) at {o},{i},{j}"
                        );
                        checked += 1;
                    }
                }
            }
            assert_eq!(checked, oc * (t - 1) * (t - 1));
        }
    }
}

#[test]
fn conv2d_and_conv2d_into_agree_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0xB17);
    let mut scratch = Scratch::new();
    let mut out = ActBuf::new();
    // (n, ic, oc, h, w, kernel, stride, pad)
    for &(n, ic, oc, h, w, kernel, stride, pad) in &[
        (2usize, 3usize, 5usize, 9usize, 7usize, 3usize, 1usize, 1usize),
        (1, 30, 7, 6, 6, 3, 1, 1),
        (2, 4, 1, 8, 8, 5, 2, 2),
    ] {
        let p = Conv2dParams { kernel, stride, pad };
        let x = Tensor::randn([n, ic, h, w], 1.0, &mut rng);
        let wt = Tensor::randn([oc, ic, kernel, kernel], 0.5, &mut rng);
        let bias = rand_vec(&mut rng, oc);
        let want = conv2d(&x, &wt, &bias, p);
        let dims = (n, ic, h, w);
        conv2d_into(x.as_slice(), dims, &wt, &bias, p, FusedAct::Identity, &mut scratch, &mut out);
        assert_eq!(out.dims(), want.dims());
        assert_eq!(
            bits(out.as_slice()),
            bits(want.as_slice()),
            "{dims:?} k{kernel} s{stride} p{pad}"
        );
    }
}

#[test]
fn a_scratch_used_on_a_larger_shape_returns_the_same_bits_as_a_fresh_one() {
    let mut rng = StdRng::seed_from_u64(0xA7E);
    let p = Conv2dParams::same(3);
    let big = Tensor::randn([1, 40, 20, 20], 1.0, &mut rng);
    let big_w = Tensor::randn([23, 40, 3, 3], 0.5, &mut rng);
    // Small: ragged in every direction (M = 7, K = 45, N = 35) so stale
    // padding rows, columns and k-steps of the big call would all show.
    let small = Tensor::randn([1, 5, 5, 7], 1.0, &mut rng);
    let small_w = Tensor::randn([7, 5, 3, 3], 0.5, &mut rng);
    let bias = rand_vec(&mut rng, 7);
    let run = |scratch: &mut Scratch| {
        let mut out = ActBuf::new();
        conv2d_into(
            small.as_slice(),
            (1, 5, 5, 7),
            &small_w,
            &bias,
            p,
            FusedAct::Relu,
            scratch,
            &mut out,
        );
        let (a, b) = (small_w.as_slice(), small.as_slice());
        let mut c = vec![f32::NAN; 7 * 35];
        gemm_fused(7, 5, 35, &a[..35], b, &mut c, Some(&bias), FusedAct::Relu, scratch);
        (bits(out.as_slice()), bits(&c))
    };

    let fresh = run(&mut Scratch::new());
    let mut used = Scratch::new();
    let mut sink = ActBuf::new();
    conv2d_into(
        big.as_slice(),
        (1, 40, 20, 20),
        &big_w,
        &[],
        p,
        FusedAct::Identity,
        &mut used,
        &mut sink,
    );
    assert!(used.capacity_bytes() > 0);
    assert_eq!(run(&mut used), fresh);
}

/// `x` (`[rows, cols]` row-major) transposed to `[cols, rows]`.
fn transposed(rows: usize, cols: usize, x: &[f32]) -> Vec<f32> {
    let mut t = vec![0.0f32; x.len()];
    for (i, row) in x.chunks(cols.max(1)).enumerate() {
        for (j, &v) in row.iter().enumerate() {
            t[j * rows + i] = v;
        }
    }
    t
}

/// Check `gemm_bt` (`A·Bᵀ`, `B` stored `[n, k]`) and `gemm_at` (`Aᵀ·B`, `A`
/// stored `[k, m]`) against [`gemm_ref`] on explicitly transposed operands.
/// Under `beta == 0` the output starts as NaN, which must not survive.
fn check_transposed_products(rng: &mut StdRng, (m, k, n): (usize, usize, usize), beta: f32) {
    let a = rand_vec(rng, m * k);
    let b = rand_vec(rng, k * n);
    let c0 = rand_vec(rng, m * n);
    let mut want = c0.clone();
    gemm_ref(m, k, n, &a, &b, &mut want, beta);
    let tol = if k > 256 { 1e-3 } else { 1e-4 };
    let start = if beta == 0.0 { vec![f32::NAN; m * n] } else { c0 };

    let mut got = start.clone();
    gemm_bt(m, k, n, &a, &transposed(k, n, &b), &mut got, beta);
    assert!(got.iter().all(|v| v.is_finite()), "gemm_bt ({m},{k},{n}) beta {beta}: NaN survived");
    let err = max_rel_err(&got, &want);
    assert!(err < tol, "gemm_bt ({m},{k},{n}) beta {beta}: rel err {err}");

    let mut got = start;
    gemm_at(m, k, n, &transposed(m, k, &a), &b, &mut got, beta);
    assert!(got.iter().all(|v| v.is_finite()), "gemm_at ({m},{k},{n}) beta {beta}: NaN survived");
    let err = max_rel_err(&got, &want);
    assert!(err < tol, "gemm_at ({m},{k},{n}) beta {beta}: rel err {err}");
}

#[test]
fn transposed_products_match_naive_across_blocking_remainders() {
    // m, n off the 6 / 16 register tile (n < NR and m == 1 included), k on
    // both sides of the 256-step block and empty.
    let mut rng = StdRng::seed_from_u64(0x7A5);
    let mut trial = 0;
    for m in [1usize, 5, 7, 17, 33] {
        for n in [1usize, 5, 7, 17, 33] {
            for k in [0usize, 1, 255, 256, 257, 513] {
                check_transposed_products(&mut rng, (m, k, n), [0.0f32, 1.0, -0.5][trial % 3]);
                trial += 1;
            }
        }
    }
}

/// The products `conv2d_backward` runs per image for `(oc, oh·ow, ic·k²)`:
/// `dW = dY·colᵀ` is `gemm_bt(oc, oh·ow, ic·k²)`, `dcol = Wᵀ·dY` is
/// `gemm_at(ic·k², oc, oh·ow)`.
const CONV_BACKWARD_SHAPES: [(usize, usize, usize); 4] =
    [(16, 256, 27), (32, 256, 144), (64, 1024, 576), (128, 256, 1152)];

#[test]
fn transposed_products_match_naive_on_the_backward_shapes() {
    let mut rng = StdRng::seed_from_u64(0xBAC);
    for &(oc, ohw, kk) in &CONV_BACKWARD_SHAPES {
        check_transposed_products(&mut rng, (oc, ohw, kk), 0.0);
        check_transposed_products(&mut rng, (kk, oc, ohw), 0.0);
    }
    // linear_backward on a batch of 32, D = 256, O = 6: dx = dy·wᵀ is
    // gemm_bt(N, O, D), dw = xᵀ·dy is gemm_at(D, N, O).
    check_transposed_products(&mut rng, (32, 6, 256), 0.0);
    check_transposed_products(&mut rng, (256, 32, 6), 0.0);
}

#[test]
fn transposed_products_reproduce_row_sub_ranges_bit_for_bit() {
    let mut shapes = vec![(1usize, 9usize, 5usize), (5, 27, 15), (7, 257, 17), (13, 513, 33)];
    for &(oc, ohw, kk) in &CONV_BACKWARD_SHAPES {
        shapes.extend([(oc, ohw, kk), (kk, oc, ohw)]);
    }
    let mut rng = StdRng::seed_from_u64(0x50B);
    for &(m, k, n) in &shapes {
        let a = rand_vec_with_zeros(&mut rng, m * k);
        let a_t = transposed(m, k, &a);
        let b = rand_vec_with_zeros(&mut rng, k * n);
        let b_t = transposed(k, n, &b);
        let (mut full_bt, mut full_at) = (vec![f32::NAN; m * n], vec![f32::NAN; m * n]);
        gemm_bt(m, k, n, &a, &b_t, &mut full_bt, 0.0);
        gemm_at(m, k, n, &a_t, &b, &mut full_at, 0.0);

        for _ in 0..3 {
            let r0 = rng.gen_range(0..m);
            let r1 = rng.gen_range(r0 + 1..m + 1);
            let rows = r1 - r0;
            let mut got = vec![f32::NAN; rows * n];
            gemm_bt(rows, k, n, &a[r0 * k..r1 * k], &b_t, &mut got, 0.0);
            assert_eq!(bits(&got), bits(&full_bt[r0 * n..r1 * n]), "bt ({m},{k},{n}) {r0}..{r1}");

            // Rows r0..r1 of the product are columns r0..r1 of the stored Aᵀ.
            let sub_at: Vec<f32> =
                a_t.chunks(m).flat_map(|row| row[r0..r1].iter().copied()).collect();
            let mut got = vec![f32::NAN; rows * n];
            gemm_at(rows, k, n, &sub_at, &b, &mut got, 0.0);
            assert_eq!(bits(&got), bits(&full_at[r0 * n..r1 * n]), "at ({m},{k},{n}) {r0}..{r1}");
        }
    }
}

/// The im2col matrix `[ic·k², oh·ow]` of one `[ic, h, w]` image, written out.
fn im2col_ref(x: &[f32], (ic, h, w): (usize, usize, usize), p: Conv2dParams) -> Vec<f32> {
    let (oh, ow, ks) = (p.out_dim(h), p.out_dim(w), p.kernel);
    let mut col = Vec::with_capacity(ic * ks * ks * oh * ow);
    for c in 0..ic {
        for ki in 0..ks {
            for kj in 0..ks {
                for oi in 0..oh {
                    for oj in 0..ow {
                        let si = (oi * p.stride + ki) as isize - p.pad as isize;
                        let sj = (oj * p.stride + kj) as isize - p.pad as isize;
                        let inside = (0..h as isize).contains(&si) && (0..w as isize).contains(&sj);
                        col.push(if inside {
                            x[(c * h + si as usize) * w + sj as usize]
                        } else {
                            0.0
                        });
                    }
                }
            }
        }
    }
    col
}

#[test]
fn conv_in_place_rows_match_the_layer_by_layer_panel_path_bit_for_bit() {
    // The reference is the three layers one by one: `gemm_fused` with the
    // bias over the written-out im2col matrix (the panel path), then the
    // BatchNorm affine as its own multiply and add, then the activation.
    // Stride 1 with 16 or 32 output columns reads the image in place; the
    // other shapes fill panels. `m == 1` goes through `gemm_fused` as two
    // equal rows, since its one-row kernel has its own order.
    let mut rng = StdRng::seed_from_u64(0x1B);
    let mut scratch = Scratch::new();
    let mut out = ActBuf::new();
    for m in [1, 6, 15, 16, 17, 32, 33, 64] {
        for ow in [8, 16, 17, 32] {
            for ic in [3, 16, 32, 64] {
                for (pad, stride) in [(0, 1), (1, 1), (0, 2), (1, 2)] {
                    let p = Conv2dParams { kernel: 3, stride, pad };
                    let (h, w) = (stride + 3 - 2 * pad, (ow - 1) * stride + 3 - 2 * pad);
                    let (k, n) = (ic * 9, 2 * ow);
                    let x = rand_vec_with_zeros(&mut rng, ic * h * w);
                    let wt = Tensor::from_vec([m, ic, 3, 3], rand_vec(&mut rng, m * k));
                    let bias = rand_vec_with_zeros(&mut rng, m);
                    let (scale, shift) = (rand_vec(&mut rng, m), rand_vec_with_zeros(&mut rng, m));
                    let col = im2col_ref(&x, (ic, h, w), p);
                    let rows = m.max(2);
                    let a: Vec<f32> =
                        wt.as_slice().iter().cycle().take(rows * k).copied().collect();
                    let bias2: Vec<f32> = bias.iter().cycle().take(rows).copied().collect();
                    let mut conv = vec![0.0f32; rows * n];
                    let id = FusedAct::Identity;
                    gemm_fused(rows, k, n, &a, &col, &mut conv, Some(&bias2), id, &mut scratch);
                    for act in ACTS {
                        for with_bn in [false, true] {
                            let mut want = conv[..m * n].to_vec();
                            for (c, row) in want.chunks_mut(n).enumerate() {
                                for v in row {
                                    let bn = if with_bn { scale[c] * *v + shift[c] } else { *v };
                                    *v = act.apply(bn);
                                }
                            }
                            let dims = (1, ic, h, w);
                            if with_bn {
                                let bn = (&scale[..], &shift[..]);
                                conv2d_affine_into(
                                    &x,
                                    dims,
                                    &wt,
                                    &bias,
                                    bn,
                                    p,
                                    act,
                                    &mut scratch,
                                    &mut out,
                                );
                            } else {
                                conv2d_into(&x, dims, &wt, &bias, p, act, &mut scratch, &mut out);
                            }
                            assert_eq!(
                                bits(out.as_slice()),
                                bits(&want),
                                "m={m} ow={ow} ic={ic} pad={pad} s={stride} {act:?} bn={with_bn}"
                            );
                        }
                    }
                }
            }
        }
    }
}
