//! Elastic-capacity autoscaling: a sliding load-forecast window over job
//! arrivals (arrivals/s per [`ResourceClass`]) driving grow/shrink decisions
//! for `Simulator`-class capacity in a [`crate::federation::FederatedFleet`].
//!
//! The autoscaler *decides*; it never mutates the fleet itself. Callers apply
//! a [`ScalingDecision`] by journaling
//! [`crate::replication::ControlPlaneEvent::QpuProvisioned`] /
//! [`QpuRetired`](crate::replication::ControlPlaneEvent::QpuRetired) events
//! through [`crate::replication::ReplicatedControlPlane::provision_qpu`] and
//! then growing the federation tail — which is what makes autoscaled runs
//! replay byte-for-byte through a leader crash.
//!
//! # Determinism contract
//!
//! Every decision is a pure function of `(observed arrivals, now_s, config)`:
//!
//! - **No wall-clock reads.** Simulated time flows in through
//!   [`Autoscaler::observe_arrival`] and [`Autoscaler::decide`]; the
//!   autoscaler holds no clock of its own, so journal replay and chaos-matrix
//!   re-runs see identical decision sequences.
//! - **Seeded forecast.** The predictive path's dither is derived by an FNV
//!   hash of `(seed, decision instant bits)` — deterministic pseudo-noise,
//!   reproducible from the config seed alone, never from ambient RNG state.
//! - **Stable arithmetic.** Rates are computed in a fixed fold order over a
//!   `VecDeque` pruned to the window, so equal observation streams produce
//!   bit-equal rates on every platform.

use qonductor_backend::ResourceClass;
use std::collections::VecDeque;

/// How the autoscaler turns load into capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalingStrategy {
    /// Scale on the *observed* arrival rate over the sliding window.
    Reactive,
    /// Scale on the *forecast* rate: a two-half-window linear trend
    /// extrapolated one window ahead, plus seeded dither.
    Predictive,
    /// Scale on the max of the observed and forecast rates — react to bursts
    /// already here, pre-provision for bursts the trend predicts.
    Hybrid,
}

/// Autoscaler tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscalerConfig {
    /// The scaling strategy.
    pub strategy: ScalingStrategy,
    /// Sliding-window length (seconds of simulated time) the arrival rate is
    /// measured over.
    pub window_s: f64,
    /// Arrivals/s one QPU of elastic capacity is expected to absorb: the
    /// target that converts a rate into a capacity count.
    pub target_rate_per_qpu: f64,
    /// Arrivals/s the *fixed* (non-elastic) fleet absorbs before any elastic
    /// capacity is warranted.
    pub baseline_rate: f64,
    /// Lower bound on elastic QPUs (never shrink below).
    pub min_elastic: usize,
    /// Upper bound on elastic QPUs (never grow above).
    pub max_elastic: usize,
    /// Minimum simulated seconds between two non-`Hold` decisions (guards
    /// against grow/shrink flapping at a rate boundary).
    pub cooldown_s: f64,
    /// Seed of the deterministic forecast dither.
    pub seed: u64,
}

impl Default for AutoscalerConfig {
    fn default() -> Self {
        AutoscalerConfig {
            strategy: ScalingStrategy::Hybrid,
            window_s: 120.0,
            target_rate_per_qpu: 0.05,
            baseline_rate: 0.1,
            min_elastic: 0,
            max_elastic: 4,
            cooldown_s: 60.0,
            seed: 0,
        }
    }
}

/// One scaling decision, sized in whole QPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalingDecision {
    /// Provision `n` more elastic QPUs.
    Grow(usize),
    /// Retire `n` elastic QPUs.
    Shrink(usize),
    /// Capacity already matches the (forecast) load.
    Hold,
}

/// The sliding-window load forecaster and elastic-capacity sizer. See the
/// module docs for the determinism contract.
#[derive(Debug, Clone)]
pub struct Autoscaler {
    config: AutoscalerConfig,
    /// `(t_s, class)` arrival observations inside the sliding window,
    /// oldest first.
    arrivals: VecDeque<(f64, ResourceClass)>,
    /// Instant of the last non-`Hold` decision (cooldown baseline).
    last_scaled_s: Option<f64>,
}

impl Autoscaler {
    /// An autoscaler with the given tuning.
    pub fn new(config: AutoscalerConfig) -> Self {
        Autoscaler { config, arrivals: VecDeque::new(), last_scaled_s: None }
    }

    /// The active configuration.
    pub fn config(&self) -> &AutoscalerConfig {
        &self.config
    }

    /// Record one job arrival at `t_s` targeting `class` capacity.
    /// Observations must arrive in non-decreasing time order (the window is
    /// pruned from the front).
    pub fn observe_arrival(&mut self, t_s: f64, class: ResourceClass) {
        self.arrivals.push_back((t_s, class));
        self.prune(t_s);
    }

    /// Drop observations older than the window behind `now_s`.
    fn prune(&mut self, now_s: f64) {
        let horizon = now_s - self.config.window_s;
        while matches!(self.arrivals.front(), Some(&(t, _)) if t < horizon) {
            self.arrivals.pop_front();
        }
    }

    /// Observed arrival rate (arrivals/s, all classes) over the window ending
    /// at `now_s`.
    pub fn observed_rate(&self, now_s: f64) -> f64 {
        let horizon = now_s - self.config.window_s;
        let count = self.arrivals.iter().filter(|&&(t, _)| t >= horizon).count();
        count as f64 / self.config.window_s
    }

    /// Forecast arrival rate one window ahead: the linear trend between the
    /// older and newer half of the window, extrapolated forward, plus a
    /// seeded dither of at most ±2% (pseudo-noise standing in for forecast
    /// model error — deterministic, so replays agree). Clamped at zero.
    pub fn forecast_rate(&self, now_s: f64) -> f64 {
        let half = self.config.window_s / 2.0;
        let horizon = now_s - self.config.window_s;
        let mid = now_s - half;
        let older = self.arrivals.iter().filter(|&&(t, _)| t >= horizon && t < mid).count();
        let newer = self.arrivals.iter().filter(|&&(t, _)| t >= mid).count();
        let older_rate = older as f64 / half;
        let newer_rate = newer as f64 / half;
        // Extrapolate the half-window trend one further half-window out.
        let trend = newer_rate + (newer_rate - older_rate);
        let dither = 1.0 + 0.04 * (seeded_unit(self.config.seed, now_s) - 0.5);
        (trend * dither).max(0.0)
    }

    /// The rate the active strategy sizes against.
    fn planning_rate(&self, now_s: f64) -> f64 {
        match self.config.strategy {
            ScalingStrategy::Reactive => self.observed_rate(now_s),
            ScalingStrategy::Predictive => self.forecast_rate(now_s),
            ScalingStrategy::Hybrid => self.observed_rate(now_s).max(self.forecast_rate(now_s)),
        }
    }

    /// Elastic QPU count the planning rate warrants (before cooldown).
    pub fn desired_elastic(&self, now_s: f64) -> usize {
        let excess = self.planning_rate(now_s) - self.config.baseline_rate;
        let desired = if excess <= 0.0 {
            0
        } else {
            (excess / self.config.target_rate_per_qpu).ceil() as usize
        };
        desired.clamp(self.config.min_elastic, self.config.max_elastic)
    }

    /// Decide how to move from `elastic_now` provisioned QPUs toward the
    /// warranted count. Non-`Hold` decisions are rate-limited by the
    /// cooldown; a decision inside the cooldown window is always `Hold`.
    pub fn decide(&mut self, now_s: f64, elastic_now: usize) -> ScalingDecision {
        if matches!(self.last_scaled_s, Some(last) if now_s - last < self.config.cooldown_s) {
            return ScalingDecision::Hold;
        }
        let desired = self.desired_elastic(now_s);
        let decision = if desired > elastic_now {
            ScalingDecision::Grow(desired - elastic_now)
        } else if desired < elastic_now {
            ScalingDecision::Shrink(elastic_now - desired)
        } else {
            ScalingDecision::Hold
        };
        if decision != ScalingDecision::Hold {
            self.last_scaled_s = Some(now_s);
        }
        decision
    }
}

/// Deterministic unit-interval pseudo-noise from `(seed, t_s)`: an FNV-1a
/// fold of the seed and the instant's IEEE-754 bits. Not statistical-quality
/// randomness — just reproducible dither.
fn seeded_unit(seed: u64, t_s: f64) -> f64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in seed.to_le_bytes().into_iter().chain(t_s.to_bits().to_le_bytes()) {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(strategy: ScalingStrategy) -> AutoscalerConfig {
        AutoscalerConfig {
            strategy,
            window_s: 100.0,
            target_rate_per_qpu: 0.1,
            baseline_rate: 0.2,
            min_elastic: 0,
            max_elastic: 5,
            cooldown_s: 0.0,
            seed: 42,
        }
    }

    /// Feed `rate` arrivals/s over the window ending at `until_s`.
    fn feed(scaler: &mut Autoscaler, rate: f64, from_s: f64, until_s: f64) {
        let step = 1.0 / rate;
        let mut t = from_s;
        while t < until_s {
            scaler.observe_arrival(t, ResourceClass::Simulator);
            t += step;
        }
    }

    #[test]
    fn reactive_scaling_follows_the_observed_rate() {
        let mut scaler = Autoscaler::new(config(ScalingStrategy::Reactive));
        assert_eq!(scaler.decide(0.0, 0), ScalingDecision::Hold, "no load, no capacity");
        // 0.5 arrivals/s: 0.3 above baseline → 3 QPUs at 0.1 each.
        feed(&mut scaler, 0.5, 0.0, 100.0);
        assert!((scaler.observed_rate(100.0) - 0.5).abs() < 0.02);
        assert_eq!(scaler.decide(100.0, 0), ScalingDecision::Grow(3));
        assert_eq!(scaler.decide(100.0, 3), ScalingDecision::Hold, "capacity matches");
        // Load drains: the window empties and capacity shrinks back.
        scaler.observe_arrival(300.0, ResourceClass::Simulator);
        assert_eq!(scaler.decide(300.0, 3), ScalingDecision::Shrink(3));
    }

    #[test]
    fn predictive_scaling_extrapolates_a_rising_trend() {
        let mut rising = Autoscaler::new(config(ScalingStrategy::Predictive));
        // Older half at 0.2/s, newer half at 0.6/s → trend forecasts ~1.0/s,
        // well above the 0.4/s observed mean.
        feed(&mut rising, 0.2, 0.0, 50.0);
        feed(&mut rising, 0.6, 50.0, 100.0);
        let forecast = rising.forecast_rate(100.0);
        let observed = rising.observed_rate(100.0);
        assert!(
            forecast > observed + 0.3,
            "rising trend must forecast above observed ({forecast:.3} vs {observed:.3})"
        );
        // A flat stream forecasts ≈ its observed rate (dither is ±2%).
        let mut flat = Autoscaler::new(config(ScalingStrategy::Predictive));
        feed(&mut flat, 0.4, 0.0, 100.0);
        let f = flat.forecast_rate(100.0);
        assert!((f - flat.observed_rate(100.0)).abs() < 0.05, "flat trend stays flat ({f:.3})");
    }

    #[test]
    fn hybrid_takes_the_max_of_observed_and_forecast() {
        // Falling trend: observed dominates (hybrid must not shed capacity a
        // still-high observed rate needs).
        let mut scaler = Autoscaler::new(config(ScalingStrategy::Hybrid));
        feed(&mut scaler, 0.8, 0.0, 50.0);
        feed(&mut scaler, 0.2, 50.0, 100.0);
        let planning = scaler.desired_elastic(100.0);
        let observed_only = {
            let mut r = Autoscaler::new(config(ScalingStrategy::Reactive));
            feed(&mut r, 0.8, 0.0, 50.0);
            feed(&mut r, 0.2, 50.0, 100.0);
            r.desired_elastic(100.0)
        };
        assert_eq!(planning, observed_only, "falling trend: hybrid sizes on observed");
    }

    #[test]
    fn decisions_are_deterministic_for_equal_observation_streams() {
        let run = || {
            let mut scaler = Autoscaler::new(config(ScalingStrategy::Hybrid));
            let mut decisions = Vec::new();
            let mut elastic = 0usize;
            for step in 0..40 {
                let t = step as f64 * 10.0;
                // A deterministic burst between t=100 and t=250.
                let rate = if (100.0..250.0).contains(&t) { 0.9 } else { 0.1 };
                feed(&mut scaler, rate, t, t + 10.0);
                let d = scaler.decide(t + 10.0, elastic);
                match d {
                    ScalingDecision::Grow(n) => elastic += n,
                    ScalingDecision::Shrink(n) => elastic -= n,
                    ScalingDecision::Hold => {}
                }
                decisions.push(d);
            }
            (decisions, elastic)
        };
        let (a, elastic_a) = run();
        let (b, elastic_b) = run();
        assert_eq!(a, b, "equal streams, equal decision sequences");
        assert_eq!(elastic_a, elastic_b);
        assert!(a.iter().any(|d| matches!(d, ScalingDecision::Grow(_))), "the burst grows");
        assert!(a.iter().any(|d| matches!(d, ScalingDecision::Shrink(_))), "the drain shrinks");

        // A different seed dithers the forecast but stays deterministic.
        let mut other =
            Autoscaler::new(AutoscalerConfig { seed: 7, ..config(ScalingStrategy::Predictive) });
        feed(&mut other, 0.5, 0.0, 100.0);
        let f1 = other.forecast_rate(100.0);
        let f2 = other.forecast_rate(100.0);
        assert_eq!(f1, f2, "same instant, same forecast");
    }

    #[test]
    fn cooldown_suppresses_flapping_and_bounds_are_respected() {
        let mut scaler = Autoscaler::new(AutoscalerConfig {
            cooldown_s: 50.0,
            max_elastic: 2,
            ..config(ScalingStrategy::Reactive)
        });
        feed(&mut scaler, 1.2, 0.0, 100.0);
        // 1.0/s over baseline wants 10 QPUs; the cap clamps to 2.
        assert_eq!(scaler.decide(100.0, 0), ScalingDecision::Grow(2));
        // Inside the cooldown every decision is Hold, whatever the load.
        assert_eq!(scaler.decide(120.0, 2), ScalingDecision::Hold);
        assert_eq!(scaler.decide(149.9, 0), ScalingDecision::Hold);
        // After the cooldown the scaler acts again.
        feed(&mut scaler, 1.2, 100.0, 160.0);
        assert!(matches!(scaler.decide(160.0, 0), ScalingDecision::Grow(_)));

        let mut floored = Autoscaler::new(AutoscalerConfig {
            min_elastic: 1,
            ..config(ScalingStrategy::Reactive)
        });
        assert_eq!(floored.decide(500.0, 0), ScalingDecision::Grow(1), "floor holds with no load");
    }
}
