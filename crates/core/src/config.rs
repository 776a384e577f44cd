//! Typed configuration validation shared by every public config surface.
//!
//! `RuntimeConfig::validate()` / `WorkerOptions::validate()` in
//! `adcnn-runtime`, the netsim configs' `validate()` and
//! [`LifecyclePolicy::validate`] here reject nonsense with a
//! [`ConfigError`] instead of letting a zero timer or a sub-unity slack
//! factor wedge a run. Config structs have public fields and working
//! `Default` impls and are written as struct literals over those defaults;
//! the drivers validate at launch, so a bad value fails before anything
//! runs.

use crate::lifecycle::LifecyclePolicy;

/// A config value that cannot produce a meaningful run.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// `t_l` must be positive: it is both the T_L timer and the
    /// rate-normalization unit of Algorithm 2.
    NonPositiveTl(f64),
    /// `slack < 1.0` would arm deadlines *before* the expected
    /// makespan, re-dispatching tiles that are merely on schedule.
    SlackBelowOne(f64),
    /// The hard timeout bounds every image's lifetime; zero or negative
    /// means no image can complete.
    NonPositiveHardTimeout(f64),
    /// A zero-capacity task queue rejects every send.
    ZeroTaskQueueCap,
    /// EWMA gamma must lie in (0, 1]: 0 never learns, >1 oscillates.
    GammaOutOfRange(f64),
    /// The wire codec packs {2, 4, 8}-bit lanes; other widths have no
    /// packed representation.
    UnsupportedQuantBits(u32),
    /// A simulation of zero images has no summary.
    ZeroImages,
    /// The partition point must put at least one block on the Conv nodes
    /// and cannot exceed the network depth.
    PrefixOutOfRange { prefix: usize, blocks: usize },
    /// At least one worker/node is required to place tiles.
    NoWorkers,
    /// A probability field (drop/corrupt) must lie in [0, 1].
    ProbabilityOutOfRange { field: &'static str, value: f64 },
    /// A pipeline of depth zero can never admit an image.
    ZeroPipelineDepth,
    /// A zero-capacity intake queue rejects every submit.
    ZeroIntakeCap,
    /// Per-image attribution tracks a bounded number of in-flight
    /// images; a deeper pipeline would evict healthy images' state and
    /// drop their reports.
    AttributionDepthExceeded { depth: usize, max: usize },
    /// An open-loop arrival process needs a positive rate.
    NonPositiveArrivalRate(f64),
    /// A bursty arrival process needs positive mean dwell times in both
    /// states.
    NonPositiveDwell(f64),
    /// A replayed arrival trace must be time-sorted and nonnegative.
    UnsortedArrivalTrace,
    /// A tenant's fair-share weight must be positive and finite.
    NonPositiveTenantWeight(f64),
    /// A fleet simulation needs at least one tenant.
    NoTenants,
    /// A churn plan covers a window of virtual time; an empty or negative
    /// horizon generates no schedules.
    NonPositiveChurnHorizon(f64),
    /// A diurnal capacity curve needs a positive period to oscillate over.
    NonPositiveDiurnalPeriod(f64),
    /// The diurnal valley multiplier must lie in (0, 1]: 0 would be
    /// death (that is what join/leave models), above 1 is not a trough.
    DiurnalTroughOutOfRange(f64),
    /// A placement headroom factor must be finite and nonnegative.
    NegativePlacementHeadroom(f64),
    /// An SLO latency target must be positive and finite to burn
    /// against.
    NonPositiveSloTarget(f64),
    /// An SLO error budget is a fraction of requests and must lie in
    /// (0, 1].
    SloBudgetOutOfRange(f64),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NonPositiveTl(v) => {
                write!(f, "t_l must be > 0 (got {v})")
            }
            ConfigError::SlackBelowOne(v) => {
                write!(f, "slack must be >= 1.0 so deadlines trail the expected makespan (got {v})")
            }
            ConfigError::NonPositiveHardTimeout(v) => {
                write!(f, "hard_timeout must be > 0 (got {v})")
            }
            ConfigError::ZeroTaskQueueCap => {
                write!(f, "task_queue_cap must be >= 1")
            }
            ConfigError::GammaOutOfRange(v) => {
                write!(f, "gamma must be in (0, 1] (got {v})")
            }
            ConfigError::UnsupportedQuantBits(v) => {
                write!(f, "quantizer bit-width must be one of {{2, 4, 8}} (got {v})")
            }
            ConfigError::ZeroImages => {
                write!(f, "images must be >= 1")
            }
            ConfigError::PrefixOutOfRange { prefix, blocks } => {
                write!(f, "prefix {prefix} must be in 1..={blocks} to split the network")
            }
            ConfigError::NoWorkers => {
                write!(f, "at least one worker/node is required")
            }
            ConfigError::ProbabilityOutOfRange { field, value } => {
                write!(f, "{field} must be in [0, 1] (got {value})")
            }
            ConfigError::ZeroPipelineDepth => {
                write!(f, "pipeline_depth must be >= 1")
            }
            ConfigError::ZeroIntakeCap => {
                write!(f, "intake_cap must be >= 1")
            }
            ConfigError::AttributionDepthExceeded { depth, max } => {
                write!(
                    f,
                    "attribution tracks at most {max} in-flight images (pipeline_depth {depth})"
                )
            }
            ConfigError::NonPositiveArrivalRate(v) => {
                write!(f, "arrival rate must be > 0 (got {v})")
            }
            ConfigError::NonPositiveDwell(v) => {
                write!(f, "MMPP mean dwell times must be > 0 (got {v})")
            }
            ConfigError::UnsortedArrivalTrace => {
                write!(f, "arrival trace must be time-sorted and nonnegative")
            }
            ConfigError::NonPositiveTenantWeight(v) => {
                write!(f, "tenant weight must be positive and finite (got {v})")
            }
            ConfigError::NoTenants => {
                write!(f, "at least one tenant is required")
            }
            ConfigError::NonPositiveChurnHorizon(v) => {
                write!(f, "churn horizon must be > 0 (got {v})")
            }
            ConfigError::NonPositiveDiurnalPeriod(v) => {
                write!(f, "diurnal period must be > 0 (got {v})")
            }
            ConfigError::DiurnalTroughOutOfRange(v) => {
                write!(f, "diurnal trough must be in (0, 1] (got {v})")
            }
            ConfigError::NegativePlacementHeadroom(v) => {
                write!(f, "placement headroom must be finite and >= 0 (got {v})")
            }
            ConfigError::NonPositiveSloTarget(v) => {
                write!(f, "SLO latency target must be finite and > 0 (got {v})")
            }
            ConfigError::SloBudgetOutOfRange(v) => {
                write!(f, "SLO error budget must be in (0, 1] (got {v})")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validate a probability-like field.
pub fn check_probability(field: &'static str, value: f64) -> Result<(), ConfigError> {
    if !(0.0..=1.0).contains(&value) || value.is_nan() {
        return Err(ConfigError::ProbabilityOutOfRange { field, value });
    }
    Ok(())
}

impl LifecyclePolicy {
    /// Check the policy's invariants; the config builders call this on
    /// `build()` and the drivers again at launch, so a hand-mutated config
    /// fails just as loudly.
    pub fn validate(&self) -> Result<(), ConfigError> {
        // NaN fails closed on every bound.
        if self.t_l.is_nan() || self.t_l <= 0.0 {
            return Err(ConfigError::NonPositiveTl(self.t_l));
        }
        if self.slack.is_nan() || self.slack < 1.0 {
            return Err(ConfigError::SlackBelowOne(self.slack));
        }
        if self.hard_timeout.is_nan() || self.hard_timeout <= 0.0 {
            return Err(ConfigError::NonPositiveHardTimeout(self.hard_timeout));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_validates() {
        assert_eq!(LifecyclePolicy::default().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_nonsense() {
        let d = LifecyclePolicy::default();
        assert_eq!(
            LifecyclePolicy { t_l: 0.0, ..d }.validate(),
            Err(ConfigError::NonPositiveTl(0.0))
        );
        assert_eq!(
            LifecyclePolicy { slack: 0.9, ..d }.validate(),
            Err(ConfigError::SlackBelowOne(0.9))
        );
        assert_eq!(
            LifecyclePolicy { hard_timeout: -1.0, ..d }.validate(),
            Err(ConfigError::NonPositiveHardTimeout(-1.0))
        );
        // NaN fails closed
        assert!(LifecyclePolicy { t_l: f64::NAN, ..d }.validate().is_err());
    }

    #[test]
    fn errors_display_the_offending_value() {
        let msg = ConfigError::SlackBelowOne(0.5).to_string();
        assert!(msg.contains("0.5"), "{msg}");
        let msg = ConfigError::UnsupportedQuantBits(3).to_string();
        assert!(msg.contains('3'), "{msg}");
    }
}
