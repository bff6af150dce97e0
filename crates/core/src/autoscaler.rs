//! Elastic-capacity autoscaling: a sliding load-forecast window over job
//! arrivals (arrivals/s) driving grow/shrink decisions for `Simulator`-class
//! capacity in a [`crate::federation::FederatedFleet`].
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
//! Every decision is a pure function of `(observed arrivals, now_s, config)`.
//! It sizes against the max of the observed and the forecast arrival rate:
//! react to bursts already here, pre-provision for bursts the trend predicts.
//!
//! - **No wall-clock reads.** Simulated time flows in through
//!   [`Autoscaler::observe_arrival`] and [`Autoscaler::decide`]; the
//!   autoscaler holds no clock of its own, so journal replay and chaos-matrix
//!   re-runs see identical decision sequences.
//! - **Fixed dither.** The forecast's dither is an FNV hash of the decision
//!   instant's bits — deterministic pseudo-noise, never ambient RNG state.
//! - **Stable arithmetic.** Rates are computed in a fixed fold order over a
//!   `VecDeque` pruned to the window, so equal observation streams produce
//!   bit-equal rates on every platform.

use crate::digest::Fnv64;
use std::collections::VecDeque;

/// Autoscaler tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscalerConfig {
    /// Sliding-window length (seconds of simulated time) the arrival rate is
    /// measured over.
    pub window_s: f64,
    /// Arrivals/s one QPU of elastic capacity is expected to absorb: the
    /// target that converts a rate into a capacity count.
    pub target_rate_per_qpu: f64,
    /// Arrivals/s the *fixed* (non-elastic) fleet absorbs before any elastic
    /// capacity is warranted.
    pub baseline_rate: f64,
    /// Upper bound on elastic QPUs (never grow above).
    pub max_elastic: usize,
    /// Minimum simulated seconds between two non-`Hold` decisions (guards
    /// against grow/shrink flapping at a rate boundary).
    pub cooldown_s: f64,
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
    /// Arrival instants inside the sliding window, oldest first.
    arrivals: VecDeque<f64>,
    /// Instant of the last non-`Hold` decision (cooldown baseline).
    last_scaled_s: Option<f64>,
}

impl Autoscaler {
    /// An autoscaler with the given tuning.
    pub fn new(config: AutoscalerConfig) -> Self {
        Autoscaler { config, arrivals: VecDeque::new(), last_scaled_s: None }
    }

    /// Record one job arrival at `t_s`. Observations must arrive in
    /// non-decreasing time order (the window is pruned from the front).
    pub fn observe_arrival(&mut self, t_s: f64) {
        self.arrivals.push_back(t_s);
        self.prune(t_s);
    }

    /// Drop observations older than the window behind `now_s`.
    fn prune(&mut self, now_s: f64) {
        let horizon = now_s - self.config.window_s;
        while matches!(self.arrivals.front(), Some(&t) if t < horizon) {
            self.arrivals.pop_front();
        }
    }

    /// Observed arrival rate (arrivals/s) over the window ending at `now_s`.
    fn observed_rate(&self, now_s: f64) -> f64 {
        let horizon = now_s - self.config.window_s;
        let count = self.arrivals.iter().filter(|&&t| t >= horizon).count();
        count as f64 / self.config.window_s
    }

    /// Forecast arrival rate one window ahead: the linear trend between the
    /// older and newer half of the window, extrapolated forward, plus a
    /// fixed dither of at most ±2% (pseudo-noise standing in for forecast
    /// model error — deterministic, so replays agree). Clamped at zero.
    fn forecast_rate(&self, now_s: f64) -> f64 {
        let half = self.config.window_s / 2.0;
        let horizon = now_s - self.config.window_s;
        let mid = now_s - half;
        let older = self.arrivals.iter().filter(|&&t| t >= horizon && t < mid).count();
        let newer = self.arrivals.iter().filter(|&&t| t >= mid).count();
        let older_rate = older as f64 / half;
        let newer_rate = newer as f64 / half;
        // Extrapolate the half-window trend one further half-window out.
        let trend = newer_rate + (newer_rate - older_rate);
        let dither = 1.0 + 0.04 * (dither_unit(now_s) - 0.5);
        (trend * dither).max(0.0)
    }

    /// Elastic QPU count the larger of the observed and forecast rates
    /// warrants (before cooldown).
    fn desired_elastic(&self, now_s: f64) -> usize {
        let rate = self.observed_rate(now_s).max(self.forecast_rate(now_s));
        let excess = rate - self.config.baseline_rate;
        let desired = if excess <= 0.0 {
            0
        } else {
            (excess / self.config.target_rate_per_qpu).ceil() as usize
        };
        desired.min(self.config.max_elastic)
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

/// Deterministic unit-interval pseudo-noise for the instant `t_s`: an FNV-1a
/// fold of eight zero bytes, then the instant's IEEE-754 bits. The zero
/// prefix is part of the recorded dither: `BENCH_slo.json` was measured with
/// it. Not statistical-quality randomness — just reproducible dither.
fn dither_unit(t_s: f64) -> f64 {
    let mut hash = Fnv64::new();
    hash.absorb(&[0; 8]);
    hash.absorb(&t_s.to_bits().to_le_bytes());
    (hash.value() >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> AutoscalerConfig {
        AutoscalerConfig {
            window_s: 100.0,
            target_rate_per_qpu: 0.1,
            baseline_rate: 0.2,
            max_elastic: 5,
            cooldown_s: 0.0,
        }
    }

    /// Feed `rate` arrivals/s over the window ending at `until_s`.
    fn feed(scaler: &mut Autoscaler, rate: f64, from_s: f64, until_s: f64) {
        let step = 1.0 / rate;
        let mut t = from_s;
        while t < until_s {
            scaler.observe_arrival(t);
            t += step;
        }
    }

    #[test]
    fn reactive_scaling_follows_the_observed_rate() {
        let mut scaler = Autoscaler::new(config());
        assert_eq!(scaler.decide(0.0, 0), ScalingDecision::Hold, "no load, no capacity");
        // 0.5 arrivals/s: 0.3 above baseline → 3 QPUs at 0.1 each, and a
        // fourth because the dithered flat forecast lands just above 0.5.
        feed(&mut scaler, 0.5, 0.0, 100.0);
        assert!((scaler.observed_rate(100.0) - 0.5).abs() < 0.02);
        assert_eq!(scaler.decide(100.0, 0), ScalingDecision::Grow(4));
        // Load drains: the window empties and capacity shrinks back.
        scaler.observe_arrival(300.0);
        assert!(scaler.observed_rate(300.0) < 0.02);
        assert_eq!(scaler.decide(300.0, 3), ScalingDecision::Shrink(3));
    }

    #[test]
    fn predictive_scaling_extrapolates_a_rising_trend() {
        let mut rising = Autoscaler::new(config());
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
        assert_eq!(rising.desired_elastic(100.0), 5, "the forecast sizes a rising trend");
        // A flat stream forecasts ≈ its observed rate (dither is ±2%).
        let mut flat = Autoscaler::new(config());
        feed(&mut flat, 0.4, 0.0, 100.0);
        let f = flat.forecast_rate(100.0);
        assert!((f - flat.observed_rate(100.0)).abs() < 0.05, "flat trend stays flat ({f:.3})");
    }

    #[test]
    fn hybrid_takes_the_max_of_observed_and_forecast() {
        // Falling trend: observed dominates (the scaler must not shed
        // capacity a still-high observed rate needs).
        let mut scaler = Autoscaler::new(config());
        feed(&mut scaler, 0.8, 0.0, 50.0);
        feed(&mut scaler, 0.2, 50.0, 100.0);
        let observed = scaler.observed_rate(100.0);
        assert!(scaler.forecast_rate(100.0) < observed, "a falling trend forecasts lower");
        let observed_only = ((observed - 0.2) / 0.1).ceil() as usize;
        assert_eq!(
            scaler.desired_elastic(100.0),
            observed_only,
            "falling trend: sized on observed"
        );
    }

    #[test]
    fn decisions_are_deterministic_for_equal_observation_streams() {
        let run = || {
            let mut scaler = Autoscaler::new(config());
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

        let mut other = Autoscaler::new(config());
        feed(&mut other, 0.5, 0.0, 100.0);
        assert_eq!(
            other.forecast_rate(100.0),
            other.forecast_rate(100.0),
            "same instant, same forecast"
        );
    }

    /// Pins the forecast, dither included, at two instants of one stream.
    #[test]
    fn the_forecast_rate_is_pinned_at_two_instants() {
        let mut scaler = Autoscaler::new(config());
        feed(&mut scaler, 0.3, 0.0, 50.0);
        feed(&mut scaler, 0.7, 50.0, 100.0);
        assert_eq!(scaler.forecast_rate(100.0).to_bits(), 1.1011933314717604f64.to_bits());
        assert_eq!(scaler.forecast_rate(125.0).to_bits(), 0.18143403070261035f64.to_bits());
    }

    #[test]
    fn cooldown_suppresses_flapping_and_bounds_are_respected() {
        let mut scaler =
            Autoscaler::new(AutoscalerConfig { cooldown_s: 50.0, max_elastic: 2, ..config() });
        feed(&mut scaler, 1.2, 0.0, 100.0);
        // 1.0/s over baseline wants 10 QPUs; the cap clamps to 2.
        assert_eq!(scaler.decide(100.0, 0), ScalingDecision::Grow(2));
        // Inside the cooldown every decision is Hold, whatever the load.
        assert_eq!(scaler.decide(120.0, 2), ScalingDecision::Hold);
        assert_eq!(scaler.decide(149.9, 0), ScalingDecision::Hold);
        // After the cooldown the scaler acts again.
        feed(&mut scaler, 1.2, 100.0, 160.0);
        assert!(matches!(scaler.decide(160.0, 0), ScalingDecision::Grow(_)));
    }
}
