//! The quiet-tenth estimator.
//!
//! A two-vCPU sandbox loses 10–40 % of a vCPU to its host in episodes that
//! last seconds. Interference only ever slows a program down, so the fast
//! end of a run estimates the program's own speed (the min-of-N rule, made
//! a little wider than one sample): cut the measured window into
//! consecutive blocks, keep the fastest tenth of them, pool their images,
//! and compute every timing metric over that pool. The whole-window figures
//! are kept beside it so the selection bias (a constant few percent) and
//! the machine's mood stay visible.

/// A block spans at least this long …
pub const MIN_BLOCK_S: f64 = 0.25;
/// … and at least this many images.
pub const MIN_BLOCK_IMAGES: usize = 16;
/// Kept blocks are topped up until they hold this many images, so ten lie
/// beyond the 95th percentile.
pub const MIN_KEPT_IMAGES: usize = 200;
/// A full-mode window with fewer blocks than this cannot give a tenth.
pub const MIN_BLOCKS: usize = 10;

/// One image whose `wait()` returned.
#[derive(Clone, Copy, Debug)]
pub struct Completion {
    /// Wall time of the `wait()` return, seconds since the window opened.
    pub done_s: f64,
    /// Harness clock: `submit()` call → `wait()` return.
    pub latency_s: f64,
    /// Process CPU clock at the `wait()` return (absolute).
    pub cpu_s: f64,
    /// Output equal to the reference and no tile zero-filled.
    pub correct: bool,
}

/// A run of consecutive completions `first..end`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Block {
    pub first: usize,
    pub end: usize,
    /// How many of its images were correct.
    pub correct: usize,
    pub start_s: f64,
    pub end_s: f64,
    pub start_cpu_s: f64,
    pub end_cpu_s: f64,
}

impl Block {
    pub fn images(&self) -> usize {
        self.end - self.first
    }

    pub fn elapsed_s(&self) -> f64 {
        self.end_s - self.start_s
    }

    /// Images per second: what blocks are ranked by.
    pub fn rate(&self) -> f64 {
        self.images() as f64 / self.elapsed_s()
    }
}

/// One measured window. Completions are fed in `wait()` order and cut into
/// blocks as they arrive; what is kept per image is one `f32` latency, so
/// the harness's own memory stays a rounding error in `peak_rss_mb`
/// however many images the program gets through.
///
/// Blocks are consecutive and each spans ≥ [`MIN_BLOCK_S`] **and** ≥
/// [`MIN_BLOCK_IMAGES`]. A block starts where the previous one ended (the
/// window's opening for the first), so no time between images goes
/// uncounted. Images that complete after `open_s` are the drain: they and
/// the unfinished block before them take no part in any estimate.
#[derive(Clone, Debug, Default)]
pub struct Window {
    /// When submissions closed, seconds since the window opened.
    open_s: f64,
    blocks: Vec<Block>,
    /// Latency of every open-part completion, ms.
    latency_ms: Vec<f32>,
    /// The block being filled: `end` is the next completion's index and
    /// `end_s` / `end_cpu_s` are those of the last completion taken in.
    tail: Block,
}

impl Window {
    /// A window whose submissions close `open_s` seconds after it opens,
    /// opened when the process CPU clock read `start_cpu_s`.
    pub fn new(open_s: f64, start_cpu_s: f64) -> Window {
        let tail = Block {
            first: 0,
            end: 0,
            correct: 0,
            start_s: 0.0,
            end_s: 0.0,
            start_cpu_s,
            end_cpu_s: start_cpu_s,
        };
        Window { open_s, blocks: Vec::new(), latency_ms: Vec::new(), tail }
    }

    /// Take in the next completion.
    pub fn push(&mut self, c: Completion) {
        if c.done_s > self.open_s {
            return;
        }
        self.latency_ms.push((c.latency_s * 1e3) as f32);
        let t = &mut self.tail;
        t.end += 1;
        t.correct += usize::from(c.correct);
        (t.end_s, t.end_cpu_s) = (c.done_s, c.cpu_s);
        if t.images() >= MIN_BLOCK_IMAGES && t.elapsed_s() >= MIN_BLOCK_S {
            let done = *t;
            self.blocks.push(done);
            *t = Block {
                first: done.end,
                correct: 0,
                start_s: done.end_s,
                start_cpu_s: done.end_cpu_s,
                ..done
            };
        }
    }

    /// Images per second of every block, in time order: the machine's mood
    /// over the window, kept in the run document.
    pub fn block_rates(&self) -> Vec<f64> {
        self.blocks.iter().map(Block::rate).collect()
    }

    /// Latencies of the open-part completions in `wait()` order, ms.
    pub fn latencies_ms(&self) -> &[f32] {
        &self.latency_ms
    }
}

/// Timing figures over one set of images.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Figures {
    pub images: usize,
    pub elapsed_s: f64,
    /// Correct images ÷ elapsed.
    pub images_per_s: f64,
    pub latency_p50_ms: f64,
    pub latency_p95_ms: f64,
    pub latency_p99_ms: f64,
    /// Process CPU consumed ÷ images.
    pub cpu_ms_per_image: f64,
}

/// What [`estimate`] returns: the quiet tenth, the whole window, and how
/// far apart they are.
#[derive(Clone, Debug, PartialEq)]
pub struct Estimate {
    pub blocks: usize,
    pub kept_blocks: usize,
    /// When the kept blocks ran: `(start, end)` seconds since the window
    /// opened, fastest first.
    pub kept_spans: Vec<(f64, f64)>,
    pub quiet: Figures,
    pub whole: Figures,
    /// `1 − whole ÷ quiet` throughput: the machine, not the program.
    pub slowdown_share: f64,
}

/// Nearest-rank percentile of an ascending slice (`q` in `0..=1`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn figures(w: &Window, blocks: &[Block]) -> Figures {
    let images: usize = blocks.iter().map(Block::images).sum();
    let elapsed_s: f64 = blocks.iter().map(Block::elapsed_s).sum();
    let cpu_s: f64 = blocks.iter().map(|b| b.end_cpu_s - b.start_cpu_s).sum();
    let correct: usize = blocks.iter().map(|b| b.correct).sum();
    let mut lat: Vec<f64> = blocks
        .iter()
        .flat_map(|b| &w.latency_ms[b.first..b.end])
        .map(|ms| f64::from(*ms))
        .collect();
    lat.sort_by(f64::total_cmp);
    Figures {
        images,
        elapsed_s,
        images_per_s: correct as f64 / elapsed_s,
        latency_p50_ms: percentile(&lat, 0.50),
        latency_p95_ms: percentile(&lat, 0.95),
        latency_p99_ms: percentile(&lat, 0.99),
        cpu_ms_per_image: cpu_s * 1e3 / images as f64,
    }
}

/// The quiet-tenth estimate of a window: rank its blocks by rate, keep the
/// fastest tenth, top up with the next fastest until ≥ [`MIN_KEPT_IMAGES`]
/// images are kept, pool them.
///
/// `strict` is full mode: fewer than [`MIN_BLOCKS`] blocks or fewer than
/// [`MIN_KEPT_IMAGES`] kept images is an error, because a tenth of too few
/// blocks is one lucky block. Short windows (smoke runs, the traced pass's
/// alternated windows) pass `false` and get the best the window allows,
/// down to the whole open part as a single block.
pub fn estimate(w: &Window, strict: bool) -> Result<Estimate, String> {
    let mut blocks = w.blocks.clone();
    if blocks.is_empty() && !strict && w.tail.images() > 0 {
        // Shorter than one block: the open part as a whole is the best there is.
        blocks.push(w.tail);
    }
    if blocks.is_empty() {
        return Err(format!(
            "window of {:.2} s holds no block of {MIN_BLOCK_S} s and {MIN_BLOCK_IMAGES} images",
            w.open_s
        ));
    }
    if strict && blocks.len() < MIN_BLOCKS {
        return Err(format!("only {} blocks in the window, need {MIN_BLOCKS}", blocks.len()));
    }
    let mut ranked = blocks.clone();
    ranked.sort_by(|a, b| b.rate().total_cmp(&a.rate()));
    let mut kept = (blocks.len() / 10).max(1);
    let images = |n: usize| ranked[..n].iter().map(Block::images).sum::<usize>();
    while kept < ranked.len() && images(kept) < MIN_KEPT_IMAGES {
        kept += 1;
    }
    if strict && images(kept) < MIN_KEPT_IMAGES {
        return Err(format!("only {} images in the window, need {MIN_KEPT_IMAGES}", images(kept)));
    }
    let quiet = figures(w, &ranked[..kept]);
    let whole = figures(w, &blocks);
    Ok(Estimate {
        blocks: blocks.len(),
        kept_blocks: kept,
        kept_spans: ranked[..kept].iter().map(|b| (b.start_s, b.end_s)).collect(),
        quiet,
        whole,
        slowdown_share: 1.0 - whole.images_per_s / quiet.images_per_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Completions `gap` seconds apart starting one gap after `from`; every
    /// gap used below is a power of two, so the sums are exact.
    fn push_some(w: &mut Window, from: f64, n: usize, gap: f64, correct: bool) -> f64 {
        let mut t = from;
        for _ in 0..n {
            t += gap;
            w.push(Completion { done_s: t, latency_s: gap * 4.0, cpu_s: START_CPU_S + t, correct });
        }
        t
    }

    fn push_run(w: &mut Window, from: f64, n: usize, gap: f64) -> f64 {
        push_some(w, from, n, gap, true)
    }

    const START_CPU_S: f64 = 8.0;

    fn window(open_s: f64) -> Window {
        Window::new(open_s, START_CPU_S)
    }

    #[test]
    fn a_block_needs_both_the_time_and_the_images() {
        // 64 images/s: 16 images take exactly 0.25 s -> both rules bind at once.
        let mut w = window(10.0);
        push_run(&mut w, 0.0, 64, 1.0 / 64.0);
        let b = &w.blocks;
        assert_eq!(b.len(), 4);
        assert_eq!((b[0].first, b[0].end, b[0].start_s, b[0].end_s), (0, 16, 0.0, 0.25));
        assert_eq!((b[1].first, b[1].start_s, b[1].end_s), (16, 0.25, 0.5));

        // 256 images/s: 16 images take 1/16 s, so the time rule stretches
        // each block to 64 images.
        let mut w = window(10.0);
        push_run(&mut w, 0.0, 256, 1.0 / 256.0);
        let b = &w.blocks;
        assert_eq!(b.len(), 4);
        assert!(b.iter().all(|b| b.images() == 64 && b.elapsed_s() == 0.25));

        // 16 images/s: 0.25 s holds 4 images, so the image rule stretches
        // each block to a whole second; the unfinished tail is dropped.
        let mut w = window(10.0);
        push_run(&mut w, 0.0, 40, 1.0 / 16.0);
        let b = &w.blocks;
        assert_eq!(b.len(), 2);
        assert!(b.iter().all(|b| b.images() == 16 && b.elapsed_s() == 1.0));
    }

    #[test]
    fn the_drain_is_dropped() {
        let mut w = window(0.5);
        push_run(&mut w, 0.0, 64, 1.0 / 64.0);
        let b = &w.blocks;
        assert_eq!(b.len(), 2, "completions after open_s = 0.5 form no block");
        assert_eq!(b[1].end_s, 0.5);
        let e = estimate(&w, false).unwrap();
        assert_eq!(e.whole.images, 32);
    }

    /// Twenty blocks of 0.25 s: two fast ones among eighteen slow ones.
    fn mixed_window(correct: bool) -> Window {
        let mut w = window(100.0);
        let mut t = 0.0;
        for i in 0..20 {
            // Blocks 3 and 11 run at 512 images/s (128 images in 0.25 s);
            // the others at 256 images/s (64 images in 0.25 s).
            t = if i == 3 || i == 11 {
                push_some(&mut w, t, 128, 1.0 / 512.0, correct)
            } else {
                push_some(&mut w, t, 64, 1.0 / 256.0, correct)
            };
        }
        w
    }

    #[test]
    fn the_fastest_tenth_is_kept() {
        let e = estimate(&mixed_window(true), true).unwrap();
        assert_eq!(e.blocks, 20);
        assert_eq!(e.kept_blocks, 2);
        assert_eq!(e.quiet.images, 256);
        assert_eq!(e.quiet.elapsed_s, 0.5);
        assert_eq!(e.quiet.images_per_s, 512.0);
        assert_eq!(e.quiet.latency_p50_ms, 4.0 / 512.0 * 1e3);
        // CPU clock advances with wall time in the synthetic window.
        assert_eq!(e.quiet.cpu_ms_per_image, 1e3 / 512.0);
        assert_eq!(e.whole.images, 18 * 64 + 2 * 128);
        assert_eq!(e.whole.elapsed_s, 5.0);
        assert_eq!(e.slowdown_share, 1.0 - (e.whole.images as f64 / 5.0) / 512.0);
    }

    #[test]
    fn kept_blocks_are_topped_up_to_200_images() {
        // 20 blocks of 64 images: a tenth is 2 blocks = 128 images, so two
        // more are added to pass 200.
        let mut w = window(100.0);
        push_run(&mut w, 0.0, 20 * 64, 1.0 / 256.0);
        let e = estimate(&w, true).unwrap();
        assert_eq!(e.blocks, 20);
        assert_eq!(e.kept_blocks, 4);
        assert_eq!(e.quiet.images, 256);
    }

    #[test]
    fn incorrect_images_do_not_count_as_throughput() {
        let e = estimate(&mixed_window(false), true).unwrap();
        assert_eq!(e.quiet.images_per_s, 0.0);
    }

    #[test]
    fn too_few_blocks_or_images_are_refused_in_full_mode() {
        let mut w = window(100.0);
        push_run(&mut w, 0.0, 9 * 64, 1.0 / 256.0);
        assert!(estimate(&w, true).unwrap_err().contains("blocks"));
        assert_eq!(estimate(&w, false).unwrap().blocks, 9);

        // Ten blocks of 16 images: enough blocks, not enough images.
        let mut w = window(100.0);
        push_run(&mut w, 0.0, 160, 1.0 / 64.0);
        assert!(estimate(&w, true).unwrap_err().contains("images"));
        let e = estimate(&w, false).unwrap();
        assert_eq!((e.blocks, e.kept_blocks, e.quiet.images), (10, 10, 160));

        // Shorter than one block: lenient mode takes the open part whole.
        let mut w = window(0.125);
        push_run(&mut w, 0.0, 12, 1.0 / 64.0);
        assert!(estimate(&w, true).is_err());
        let e = estimate(&w, false).unwrap();
        assert_eq!((e.blocks, e.quiet.images, e.quiet.elapsed_s), (1, 8, 0.125));

        assert!(estimate(&window(1.0), false).is_err());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 100.0);
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert_eq!(percentile(&v, 0.99), 198.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }
}
