//! The clock index: how fast this machine's cores are ticking *right now*.
//!
//! The sandbox's host changes the core clock with its own load (turbo
//! bins): for minutes at a time every workload here runs 10–25 % slower,
//! CPU time included, with no steal reported and whichever vCPU it is
//! pinned to. No estimator that looks only at the program can tell such a
//! mood from a regression, and ten runs that straddle a mood change have an
//! interquartile spread wider than any bound. The guest has no cycle
//! counter (`perf_event_open` reports no PMU), so this module is one in
//! software: a chain of dependent integer multiplies costs a fixed number
//! of core cycles per step whatever the caches, memory or neighbours do,
//! and its wall time per step *is* the clock period times a constant.
//!
//! A sampler thread on the machine's other CPU times a 2-million-step chain
//! every tenth of a second while the window is measured — beside the
//! program, never on its CPU. The median of the samples taken *during the
//! window's quiet-tenth blocks* is the clock those blocks ran at, and their
//! figures are rescaled by it to [`REF_NS_PER_STEP`]. The program cannot move the index: the chain is the
//! harness's own code and touches no memory.

use crate::sys;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The reference clock every end-to-end timing metric is stated at: 2 ns
/// per step is the chain's 6-cycle step at 3.0 GHz.
pub const REF_NS_PER_STEP: f64 = 2.0;
/// Steps per sample (~4 ms: long enough to outlast a wake-up ramp).
const STEPS: u64 = 2_000_000;
/// Pause between samples: a 4 % duty on a CPU the program does not use.
const PAUSE: Duration = Duration::from_millis(100);

/// `steps` dependent multiply–add–shift–xor steps (a 64-bit LCG with an
/// output fold). Each step needs the previous one's result, so no core can
/// run it faster than one step per multiply + add + shift + xor latency.
fn chain(steps: u64, mut s: u64) -> u64 {
    for _ in 0..steps {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        s ^= s >> 29;
    }
    s
}

/// Wall nanoseconds per step of one chain run.
fn sample_ns_per_step() -> f64 {
    let t = Instant::now();
    std::hint::black_box(chain(STEPS, std::hint::black_box(12345)));
    t.elapsed().as_secs_f64() * 1e9 / STEPS as f64
}

/// What the sampler saw: `(when, ns per step)` in sampling order.
#[derive(Clone, Debug)]
pub struct ClockSamples(Vec<(Instant, f64)>);

fn median(mut v: Vec<f64>) -> Option<f64> {
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied()
}

impl ClockSamples {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Mean of the fastest tenth of the samples: the best clock the machine
    /// reached while sampled.
    pub fn quiet_ns_per_step(&self) -> f64 {
        let mut v: Vec<f64> = self.0.iter().map(|s| s.1).collect();
        v.sort_by(f64::total_cmp);
        let kept = (v.len() / 10).max(1);
        v[..kept].iter().sum::<f64>() / kept as f64
    }

    /// Median sample: the machine's mood while sampled.
    pub fn median_ns_per_step(&self) -> f64 {
        median(self.0.iter().map(|s| s.1).collect()).expect("a finished sampler has samples")
    }

    /// The clock *at the moments the quiet tenth was measured*: the median
    /// of the samples taken inside `spans` (seconds since `origin`, each
    /// widened by one sampling period so even a short block catches one).
    /// `None` when no sample falls inside any span.
    pub fn ns_per_step_during(&self, origin: Instant, spans: &[(f64, f64)]) -> Option<f64> {
        let margin = (PAUSE + Duration::from_millis(10)).as_secs_f64();
        let inside = |at: Instant| {
            let t = at.saturating_duration_since(origin).as_secs_f64();
            spans.iter().any(|(from, to)| t >= from - margin && t <= to + margin)
        };
        median(self.0.iter().filter(|s| inside(s.0)).map(|s| s.1).collect())
    }
}

/// The running sampler thread.
pub struct ClockSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<(Instant, f64)>>,
}

impl ClockSampler {
    /// Start sampling on `cpu` (an allowed CPU other than the program's, or
    /// `None` to share the program's when the machine has only one).
    pub fn start(cpu: Option<usize>) -> ClockSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::Builder::new()
            .name("perf-ledger-clock".into())
            .spawn(move || {
                if let Some(cpu) = cpu {
                    sys::pin_current_thread(cpu);
                }
                let mut samples = Vec::new();
                loop {
                    samples.push((Instant::now(), sample_ns_per_step()));
                    // Relaxed: the flag publishes nothing but itself.
                    if flag.load(Ordering::Relaxed) {
                        return samples;
                    }
                    std::thread::sleep(PAUSE);
                }
            })
            .expect("spawn the clock sampler");
        ClockSampler { stop, handle }
    }

    /// Stop, join, and hand over the samples (one at least).
    pub fn finish(self) -> Result<ClockSamples, String> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().map(ClockSamples).map_err(|_| "clock sampler panicked".to_string())
    }
}

/// How much slower than the reference clock `ns_per_step` is (> 1: slower).
/// Rates are multiplied by it, durations divided.
pub fn slowdown(ns_per_step: f64) -> f64 {
    ns_per_step / REF_NS_PER_STEP
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(origin: Instant, v: &[(u64, f64)]) -> ClockSamples {
        ClockSamples(v.iter().map(|(ms, ns)| (origin + Duration::from_millis(*ms), *ns)).collect())
    }

    #[test]
    fn quiet_is_the_mean_of_the_fastest_tenth() {
        let origin = Instant::now();
        let v: Vec<(u64, f64)> = (1..=40).rev().map(|i| (i * 100, i as f64)).collect();
        let s = samples(origin, &v);
        assert_eq!(s.len(), 40);
        assert_eq!(s.quiet_ns_per_step(), 2.5, "mean of 1, 2, 3, 4");
        assert_eq!(s.median_ns_per_step(), 21.0);
        assert_eq!(slowdown(2.5), 1.25);
        assert_eq!(samples(origin, &[(0, 3.0)]).quiet_ns_per_step(), 3.0);
    }

    #[test]
    fn during_takes_only_the_samples_inside_the_spans() {
        let origin = Instant::now();
        // One sample a second; spans cover seconds 2 and 6 (margin 0.11 s).
        let s = samples(origin, &[(1000, 9.0), (2000, 2.0), (3000, 9.0), (6000, 4.0), (6100, 3.0)]);
        assert_eq!(s.ns_per_step_during(origin, &[(1.95, 2.05), (5.95, 6.0)]), Some(3.0));
        assert_eq!(s.ns_per_step_during(origin, &[(4.0, 5.0)]), None);
    }

    #[test]
    fn the_chain_is_deterministic_and_its_cost_is_per_step() {
        assert_eq!(chain(1000, 12345), chain(1000, 12345));
        assert_ne!(chain(1000, 12345), chain(1001, 12345));
        // Each step depends on the last, so four times the steps cannot be
        // much cheaper than four times the time; wide margins for a noisy box.
        let time = |steps| {
            (0..5)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(chain(steps, std::hint::black_box(1)));
                    t.elapsed().as_secs_f64()
                })
                .fold(f64::MAX, f64::min)
        };
        let (one, four) = (time(500_000), time(2_000_000));
        assert!(four > 2.5 * one && four < 6.0 * one, "{one} s vs {four} s");
    }

    #[test]
    fn the_sampler_samples_and_stops() {
        let sampler = ClockSampler::start(None);
        std::thread::sleep(Duration::from_millis(250));
        let s = sampler.finish().unwrap();
        assert!(s.len() >= 2, "{s:?}");
        let q = s.quiet_ns_per_step();
        assert!(q > 0.1 && q < 100.0 && q <= s.median_ns_per_step(), "{s:?}");
    }
}
