//! Request-arrival processes in virtual time.
//!
//! The fleet driver is open-loop: requests arrive on their own clock and
//! queue for admission, instead of materializing the instant the admission
//! window frees up (that closed-loop source is [`ArrivalSpec::ClosedLoop`],
//! what `AdcnnSim` runs on). Every process is seeded and fully
//! deterministic: the same spec, budget, and seed produce the same arrival
//! sequence on every run, which is what makes fleet experiments
//! reproducible and the differential goldens stable.
//!
//! Arrival times are generated *lazily* — the driver asks for one arrival
//! at a time — so a million-request run never holds a million-entry
//! schedule in memory.

use adcnn_core::config::ConfigError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A request-arrival process for one tenant.
#[derive(Clone, Debug)]
pub enum ArrivalSpec {
    /// Closed-loop: a request is generated the moment the admission window
    /// can take it. Queue wait is identically zero. This is the source
    /// `AdcnnSim` runs on, and the one the differential goldens pin.
    ClosedLoop,
    /// Open-loop Poisson arrivals: exponential inter-arrival gaps at
    /// `rate_per_s` requests/second.
    Poisson {
        /// Mean arrival rate, requests per (virtual) second.
        rate_per_s: f64,
    },
    /// Two-state Markov-modulated Poisson process — the classic bursty
    /// workload. The process dwells exponentially in a low-rate state,
    /// switches to a high-rate burst state, and back.
    Mmpp {
        /// Arrival rate in the quiet state (may be 0 for pure on/off).
        rate_lo: f64,
        /// Arrival rate inside bursts; must be positive.
        rate_hi: f64,
        /// Mean dwell in the quiet state, seconds.
        mean_dwell_lo_s: f64,
        /// Mean dwell in the burst state, seconds.
        mean_dwell_hi_s: f64,
    },
    /// Replay arrival offsets from a recorded trace (absolute virtual
    /// seconds, time-sorted). If the request budget exceeds the trace
    /// length the trace wraps, shifted by its own span, so short traces
    /// can drive long runs.
    Trace {
        /// Absolute arrival times, seconds, nondecreasing.
        times: Vec<f64>,
    },
}

impl ArrivalSpec {
    /// Long-run mean offered load, requests/second: the Poisson rate, the
    /// MMPP dwell-weighted average rate, a trace's span-mean. `None` for
    /// closed-loop tenants (their demand is whatever capacity allows) and
    /// for traces too short to define a rate. The placement cost oracle
    /// uses this as the tenant's target rate.
    pub fn mean_rate_per_s(&self) -> Option<f64> {
        match self {
            ArrivalSpec::ClosedLoop => None,
            ArrivalSpec::Poisson { rate_per_s } => Some(*rate_per_s),
            ArrivalSpec::Mmpp { rate_lo, rate_hi, mean_dwell_lo_s, mean_dwell_hi_s } => {
                let span = mean_dwell_lo_s + mean_dwell_hi_s;
                Some((rate_lo * mean_dwell_lo_s + rate_hi * mean_dwell_hi_s) / span)
            }
            ArrivalSpec::Trace { times } => {
                let span = times.last()? - times.first()?;
                if span > 0.0 {
                    Some((times.len() as f64 - 1.0) / span)
                } else {
                    None
                }
            }
        }
    }

    /// Check the invariants the fleet config relies on.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self {
            ArrivalSpec::ClosedLoop => Ok(()),
            ArrivalSpec::Poisson { rate_per_s } => {
                if !(rate_per_s.is_finite() && *rate_per_s > 0.0) {
                    return Err(ConfigError::NonPositiveArrivalRate(*rate_per_s));
                }
                Ok(())
            }
            ArrivalSpec::Mmpp { rate_lo, rate_hi, mean_dwell_lo_s, mean_dwell_hi_s } => {
                if !(rate_lo.is_finite() && *rate_lo >= 0.0) {
                    return Err(ConfigError::NonPositiveArrivalRate(*rate_lo));
                }
                if !(rate_hi.is_finite() && *rate_hi > 0.0) {
                    return Err(ConfigError::NonPositiveArrivalRate(*rate_hi));
                }
                for &d in &[*mean_dwell_lo_s, *mean_dwell_hi_s] {
                    if !(d.is_finite() && d > 0.0) {
                        return Err(ConfigError::NonPositiveDwell(d));
                    }
                }
                Ok(())
            }
            ArrivalSpec::Trace { times } => {
                if times.iter().any(|t| !t.is_finite() || *t < 0.0) {
                    return Err(ConfigError::UnsortedArrivalTrace);
                }
                if times.windows(2).any(|w| w[0] > w[1]) {
                    return Err(ConfigError::UnsortedArrivalTrace);
                }
                Ok(())
            }
        }
    }

    /// True for the closed-loop compatibility mode (no arrival events).
    pub fn is_closed_loop(&self) -> bool {
        matches!(self, ArrivalSpec::ClosedLoop)
    }
}

/// Lazy, seeded arrival-time generator: yields at most `budget` arrivals,
/// one at a time, in nondecreasing virtual time.
#[derive(Clone, Debug)]
pub struct ArrivalGen {
    spec: ArrivalSpec,
    rng: StdRng,
    budget: usize,
    emitted: usize,
    /// Current virtual time of the process.
    t: f64,
    /// MMPP: currently in the burst state?
    hi: bool,
    /// MMPP: time the current dwell ends.
    dwell_until: f64,
}

/// Exponential draw with the given mean; 0 when the mean is 0.
fn exp_draw(rng: &mut StdRng, mean: f64) -> f64 {
    // u in [0, 1): ln(1 - u) is finite and <= 0.
    let u: f64 = rng.gen();
    -mean * (1.0 - u).ln()
}

impl ArrivalGen {
    /// A generator for `spec`, yielding at most `budget` arrivals.
    /// `seed` fully determines the sequence.
    pub fn new(spec: ArrivalSpec, budget: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let (hi, dwell_until) = match &spec {
            ArrivalSpec::Mmpp { mean_dwell_lo_s, .. } => {
                // Start in the quiet state with a fresh dwell.
                (false, exp_draw(&mut rng, *mean_dwell_lo_s))
            }
            _ => (false, f64::INFINITY),
        };
        ArrivalGen { spec, rng, budget, emitted: 0, t: 0.0, hi, dwell_until }
    }

    /// True for the closed-loop compatibility mode: no arrival events at
    /// all, the driver synthesizes requests at admission time.
    pub fn is_closed_loop(&self) -> bool {
        self.spec.is_closed_loop()
    }

    /// Arrivals not yet emitted.
    pub fn remaining(&self) -> usize {
        self.budget - self.emitted
    }

    /// Consume one request from the budget without generating a time —
    /// the closed-loop admission path.
    pub fn take_closed_loop(&mut self) {
        debug_assert!(self.is_closed_loop() && self.emitted < self.budget);
        self.emitted += 1;
    }

    /// The next arrival time, or `None` once the budget is exhausted (or
    /// for closed-loop specs, which never emit arrival events).
    pub fn next_arrival(&mut self) -> Option<f64> {
        if self.emitted >= self.budget {
            return None;
        }
        let at = match &self.spec {
            ArrivalSpec::ClosedLoop => return None,
            ArrivalSpec::Poisson { rate_per_s } => {
                self.t += exp_draw(&mut self.rng, 1.0 / rate_per_s);
                self.t
            }
            ArrivalSpec::Mmpp { rate_lo, rate_hi, mean_dwell_lo_s, mean_dwell_hi_s } => {
                let (rate_lo, rate_hi) = (*rate_lo, *rate_hi);
                let (dw_lo, dw_hi) = (*mean_dwell_lo_s, *mean_dwell_hi_s);
                loop {
                    let rate = if self.hi { rate_hi } else { rate_lo };
                    let gap = if rate > 0.0 {
                        exp_draw(&mut self.rng, 1.0 / rate)
                    } else {
                        f64::INFINITY
                    };
                    if self.t + gap <= self.dwell_until {
                        self.t += gap;
                        break self.t;
                    }
                    // No arrival before the state flips: advance to the
                    // flip, redraw in the other state.
                    self.t = self.dwell_until;
                    self.hi = !self.hi;
                    let dwell = exp_draw(&mut self.rng, if self.hi { dw_hi } else { dw_lo });
                    self.dwell_until = self.t + dwell;
                }
            }
            ArrivalSpec::Trace { times } => {
                if times.is_empty() {
                    return None;
                }
                let lap = self.emitted / times.len();
                let idx = self.emitted % times.len();
                // Wrap the trace shifted by its span so times stay sorted.
                let span = times.last().unwrap() - times.first().unwrap();
                let stride = if span > 0.0 { span } else { 1.0 };
                times[idx] + lap as f64 * stride
            }
        };
        self.emitted += 1;
        Some(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(mut g: ArrivalGen) -> Vec<f64> {
        let mut out = Vec::new();
        while let Some(t) = g.next_arrival() {
            out.push(t);
        }
        out
    }

    #[test]
    fn poisson_is_seeded_and_deterministic() {
        let spec = ArrivalSpec::Poisson { rate_per_s: 10.0 };
        let a = collect(ArrivalGen::new(spec.clone(), 100, 7));
        let b = collect(ArrivalGen::new(spec.clone(), 100, 7));
        let c = collect(ArrivalGen::new(spec, 100, 8));
        assert_eq!(a, b, "same seed must replay identically");
        assert_ne!(a, c, "different seeds must differ");
        assert_eq!(a.len(), 100);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals must be sorted");
        // mean inter-arrival ~ 1/rate (loose: 100 samples)
        let mean_gap = a.last().unwrap() / 100.0;
        assert!((0.05..0.2).contains(&mean_gap), "mean gap {mean_gap} far from 0.1");
    }

    #[test]
    fn mmpp_bursts_are_denser_than_quiet_periods() {
        // Short dwells relative to the budget so the process must cross
        // several state flips before the 500 arrivals run out.
        let spec = ArrivalSpec::Mmpp {
            rate_lo: 1.0,
            rate_hi: 100.0,
            mean_dwell_lo_s: 1.5,
            mean_dwell_hi_s: 1.5,
        };
        let a = collect(ArrivalGen::new(spec.clone(), 500, 3));
        assert_eq!(a.len(), 500);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(a, collect(ArrivalGen::new(spec, 500, 3)));
        // Burstiness: the gap distribution must be strongly bimodal — many
        // tiny burst gaps plus a tail of long quiet gaps.
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let tiny = gaps.iter().filter(|&&g| g < 0.05).count();
        let long = gaps.iter().filter(|&&g| g > 0.5).count();
        assert!(tiny > gaps.len() / 2, "no burst structure: {tiny}/{}", gaps.len());
        assert!(long > 0, "no quiet periods at all");
    }

    #[test]
    fn trace_replays_and_wraps() {
        let spec = ArrivalSpec::Trace { times: vec![0.0, 1.0, 1.5, 4.0] };
        spec.validate().unwrap();
        let a = collect(ArrivalGen::new(spec, 10, 0));
        assert_eq!(a.len(), 10);
        assert_eq!(&a[..4], &[0.0, 1.0, 1.5, 4.0]);
        // wrapped lap is the same shape shifted by the span (4.0)
        assert_eq!(&a[4..8], &[4.0, 5.0, 5.5, 8.0]);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn closed_loop_emits_no_arrival_events() {
        let mut g = ArrivalGen::new(ArrivalSpec::ClosedLoop, 5, 0);
        assert!(g.is_closed_loop());
        assert_eq!(g.next_arrival(), None);
        assert_eq!(g.remaining(), 5);
        g.take_closed_loop();
        assert_eq!(g.remaining(), 4);
    }

    #[test]
    fn specs_validate() {
        assert!(ArrivalSpec::Poisson { rate_per_s: 0.0 }.validate().is_err());
        assert!(ArrivalSpec::Poisson { rate_per_s: f64::NAN }.validate().is_err());
        assert!(ArrivalSpec::Trace { times: vec![1.0, 0.5] }.validate().is_err());
        assert!(ArrivalSpec::Trace { times: vec![-1.0] }.validate().is_err());
        assert!(ArrivalSpec::Mmpp {
            rate_lo: 0.0,
            rate_hi: 10.0,
            mean_dwell_lo_s: 1.0,
            mean_dwell_hi_s: 0.0,
        }
        .validate()
        .is_err());
        // A quiet state that emits nothing (pure on/off) is valid.
        assert!(ArrivalSpec::Mmpp {
            rate_lo: 0.0,
            rate_hi: 10.0,
            mean_dwell_lo_s: 1.0,
            mean_dwell_hi_s: 1.0,
        }
        .validate()
        .is_ok());
        assert!(ArrivalSpec::Poisson { rate_per_s: 5.0 }.validate().is_ok());
        assert!(ArrivalSpec::ClosedLoop.validate().is_ok());
    }

    #[test]
    fn mean_rate_matches_the_process() {
        assert_eq!(ArrivalSpec::ClosedLoop.mean_rate_per_s(), None);
        assert_eq!(ArrivalSpec::Poisson { rate_per_s: 4.0 }.mean_rate_per_s(), Some(4.0));
        // Dwell-weighted: (1*3 + 9*1) / 4 = 3.0
        let mmpp = ArrivalSpec::Mmpp {
            rate_lo: 1.0,
            rate_hi: 9.0,
            mean_dwell_lo_s: 3.0,
            mean_dwell_hi_s: 1.0,
        };
        let m = mmpp.mean_rate_per_s().unwrap();
        assert!((m - 3.0).abs() < 1e-12, "{m}");
        // 3 arrivals over 2 s span -> 1 req/s
        let t = ArrivalSpec::Trace { times: vec![0.0, 1.0, 2.0] }.mean_rate_per_s().unwrap();
        assert!((t - 1.0).abs() < 1e-12, "{t}");
        assert_eq!(ArrivalSpec::Trace { times: vec![1.0] }.mean_rate_per_s(), None);
    }
}
