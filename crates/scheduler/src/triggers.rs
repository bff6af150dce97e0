//! Scheduling triggers (§7): scheduling is invoked either when the pending job
//! queue reaches a size limit (default 100) or when a time interval elapses
//! (default 120 s), whichever comes first.
//!
//! The interval timer arms *lazily*: a freshly constructed trigger has no
//! baseline, so a trigger created long after the simulated epoch does not fire
//! the interval path on the first submission it sees. The baseline is set by
//! the first non-empty [`ScheduleTrigger::check`], an explicit
//! [`ScheduleTrigger::arm_if_unarmed`] (the job manager arms at the first
//! pooled submission), or [`ScheduleTrigger::mark_invoked`].

/// Default slack margin before a deadline at which the SLO path fires the
/// trigger early ([`ScheduleTrigger::slo_margin_s`]): the configured estimate
/// of one scheduling cycle's latency (snapshot + NSGA-II + enqueue). A config
/// knob, *not* a wall-clock measurement — determinism requires the margin to
/// be part of the replicated trigger state.
pub(crate) const DEFAULT_SLO_MARGIN_S: f64 = 2.0;

/// Trigger configuration and state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleTrigger {
    /// Queue-size trigger threshold (paper default: 100 jobs).
    pub queue_limit: usize,
    /// Time-based trigger interval in seconds (paper default: 120 s).
    pub interval_s: f64,
    /// Estimated scheduling-cycle latency: when a pending job's deadline
    /// slack falls below this margin the trigger fires early
    /// ([`TriggerReason::SloSlack`]) instead of letting the job wait out the
    /// interval. Deterministic by construction (a configured constant, never
    /// measured from the wall clock).
    pub slo_margin_s: f64,
    /// Simulated time of the last scheduling invocation, or `None` until the
    /// trigger is armed.
    last_invocation_s: Option<f64>,
}

/// Why scheduling was triggered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerReason {
    /// The pending queue reached the size limit.
    QueueSize,
    /// A pending job's deadline slack fell below the estimated scheduling
    /// latency ([`ScheduleTrigger::slo_margin_s`]): waiting for the next
    /// interval expiry would blow the job's SLO deadline.
    SloSlack,
    /// The time interval elapsed.
    Interval,
}

impl Default for ScheduleTrigger {
    fn default() -> Self {
        ScheduleTrigger {
            queue_limit: 100,
            interval_s: 120.0,
            slo_margin_s: DEFAULT_SLO_MARGIN_S,
            last_invocation_s: None,
        }
    }
}

impl ScheduleTrigger {
    /// Create a trigger with explicit thresholds. The interval timer is
    /// unarmed until the first observation (see the module docs).
    pub fn new(queue_limit: usize, interval_s: f64) -> Self {
        ScheduleTrigger {
            queue_limit,
            interval_s,
            slo_margin_s: DEFAULT_SLO_MARGIN_S,
            last_invocation_s: None,
        }
    }

    /// The same trigger with an explicit SLO slack margin (the deterministic
    /// estimate of one scheduling cycle's latency).
    pub fn with_slo_margin(mut self, slo_margin_s: f64) -> Self {
        self.slo_margin_s = slo_margin_s;
        self
    }

    /// Arm the interval timer at `now_s` if it has no baseline yet. Callers
    /// that pool work (the job manager) arm at the first submission so the
    /// interval measures time-with-pending-work, not time-since-epoch.
    pub fn arm_if_unarmed(&mut self, now_s: f64) {
        if self.last_invocation_s.is_none() {
            self.last_invocation_s = Some(now_s);
        }
    }

    /// Check whether scheduling should run now. Returns the trigger reason, or
    /// `None` if neither condition holds. The queue-size check takes priority.
    /// An unarmed trigger arms itself at the first check that observes a
    /// non-empty queue (and therefore never interval-fires on that check).
    pub fn check(&mut self, queue_len: usize, now_s: f64) -> Option<TriggerReason> {
        self.check_with_urgency(queue_len, now_s, false)
    }

    /// [`Self::check`] with the admission-aware SLO lane: `urgent` reports
    /// whether any pending job's deadline slack has fallen below
    /// [`Self::slo_margin_s`] (the caller computes this from its pool — the
    /// trigger itself holds no job state). Fire priority is
    /// queue-size > SLO slack > interval; the SLO path fires even on the
    /// arming check, since a deadline about to be blown cannot wait out the
    /// first interval.
    pub fn check_with_urgency(
        &mut self,
        queue_len: usize,
        now_s: f64,
        urgent: bool,
    ) -> Option<TriggerReason> {
        if queue_len == 0 {
            return None;
        }
        let Some(last) = self.last_invocation_s else {
            self.last_invocation_s = Some(now_s);
            return if queue_len >= self.queue_limit {
                Some(TriggerReason::QueueSize)
            } else if urgent {
                Some(TriggerReason::SloSlack)
            } else {
                None
            };
        };
        if queue_len >= self.queue_limit {
            Some(TriggerReason::QueueSize)
        } else if urgent {
            Some(TriggerReason::SloSlack)
        } else if now_s >= last + self.interval_s {
            // The same expression event-driven callers advance their clock
            // to (`last + interval_s`): `now_s - last >= interval_s` rounds
            // differently and can stay false at that very instant.
            Some(TriggerReason::Interval)
        } else {
            None
        }
    }

    /// Record that scheduling ran at `now_s` (resets the interval timer).
    pub fn mark_invoked(&mut self, now_s: f64) {
        self.last_invocation_s = Some(now_s);
    }

    /// Simulated time of the last invocation (or lazy-arming observation);
    /// `None` while the trigger is unarmed.
    pub fn last_invocation_s(&self) -> Option<f64> {
        self.last_invocation_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_size_trigger_fires_at_the_limit() {
        let mut t = ScheduleTrigger::default();
        assert_eq!(t.check(99, 10.0), None);
        assert_eq!(t.check(100, 10.0), Some(TriggerReason::QueueSize));
        assert_eq!(t.check(250, 10.0), Some(TriggerReason::QueueSize));
    }

    #[test]
    fn interval_trigger_fires_one_period_after_arming() {
        let mut t = ScheduleTrigger::default();
        // First observation arms the timer instead of firing it.
        assert_eq!(t.check(5, 60.0), None);
        assert_eq!(t.check(5, 179.0), None, "one interval must elapse after arming");
        assert_eq!(t.check(5, 180.0), Some(TriggerReason::Interval));
        t.mark_invoked(180.0);
        assert_eq!(t.check(5, 240.0), None);
        assert_eq!(t.check(5, 300.0), Some(TriggerReason::Interval));
    }

    #[test]
    fn empty_queue_never_triggers_or_arms() {
        let mut t = ScheduleTrigger::default();
        assert_eq!(t.check(0, 10_000.0), None);
        assert_eq!(t.last_invocation_s(), None, "an idle check must not arm the timer");
    }

    #[test]
    fn queue_trigger_takes_priority_over_interval() {
        let mut t = ScheduleTrigger::default();
        t.mark_invoked(0.0);
        assert_eq!(t.check(150, 10_000.0), Some(TriggerReason::QueueSize));
    }

    #[test]
    fn custom_thresholds_are_respected() {
        let mut t = ScheduleTrigger::new(10, 30.0);
        assert_eq!(t.check(10, 0.0), Some(TriggerReason::QueueSize));
        t.mark_invoked(0.0);
        assert_eq!(t.check(3, 29.0), None);
        assert_eq!(t.check(3, 30.0), Some(TriggerReason::Interval));
    }

    /// Regression: an engine that advances its clock to `last + interval_s`
    /// must see the trigger fire there, also when that sum rounds down so
    /// that `fl(last + interval) − last < interval`.
    #[test]
    fn interval_fires_at_the_rounded_sum_of_a_fractional_baseline() {
        let interval_s = ScheduleTrigger::default().interval_s;
        let last = (1..1000)
            .map(|k| f64::from(k) * 0.1)
            .find(|&last| (last + interval_s) - last < interval_s)
            .expect("some fractional baseline rounds the sum down");
        let mut t = ScheduleTrigger::default();
        t.mark_invoked(last);
        assert_eq!(t.check(1, last + interval_s), Some(TriggerReason::Interval));
        // Still not a moment earlier.
        let just_before = f64::from_bits((last + interval_s).to_bits() - 1);
        assert_eq!(t.check(1, just_before), None);
    }

    /// Regression: a trigger constructed when simulated time is already far
    /// beyond `interval_s` must not fire the interval path on the first
    /// submission it observes — the old eager `last_invocation_s = 0.0`
    /// baseline made `now - 0.0 ≥ interval` trivially true.
    #[test]
    fn late_construction_does_not_fire_immediately() {
        let mut t = ScheduleTrigger::new(100, 120.0);
        assert_eq!(t.check(5, 10_000.0), None, "first check arms, never interval-fires");
        assert_eq!(t.check(5, 10_119.9), None);
        assert_eq!(t.check(5, 10_120.0), Some(TriggerReason::Interval));
    }

    /// The queue-size path still fires on the very first (arming) check.
    #[test]
    fn late_construction_queue_path_is_unaffected() {
        let mut t = ScheduleTrigger::new(3, 120.0);
        assert_eq!(t.check(3, 50_000.0), Some(TriggerReason::QueueSize));
    }

    /// The SLO lane fires between interval expiries — but only when the
    /// caller reports an urgent job, and never on an empty queue.
    #[test]
    fn slo_slack_fires_early_but_only_when_urgent() {
        let mut t = ScheduleTrigger::new(100, 120.0);
        t.mark_invoked(0.0);
        assert_eq!(t.check_with_urgency(5, 10.0, false), None);
        assert_eq!(t.check_with_urgency(5, 10.0, true), Some(TriggerReason::SloSlack));
        assert_eq!(t.check_with_urgency(0, 10.0, true), None, "no queue, nothing to rescue");
    }

    /// Priority: queue-size beats SLO slack beats interval.
    #[test]
    fn slo_slack_priority_sits_between_queue_size_and_interval() {
        let mut t = ScheduleTrigger::new(10, 60.0);
        t.mark_invoked(0.0);
        assert_eq!(t.check_with_urgency(10, 5.0, true), Some(TriggerReason::QueueSize));
        assert_eq!(t.check_with_urgency(5, 100.0, true), Some(TriggerReason::SloSlack));
        assert_eq!(t.check_with_urgency(5, 100.0, false), Some(TriggerReason::Interval));
    }

    /// Unlike the interval path, the SLO path fires even on the arming check:
    /// a deadline about to be blown cannot wait out the first interval.
    #[test]
    fn slo_slack_fires_on_the_arming_check() {
        let mut t = ScheduleTrigger::new(100, 120.0);
        assert_eq!(t.check_with_urgency(3, 10_000.0, true), Some(TriggerReason::SloSlack));
        assert_eq!(t.last_invocation_s(), Some(10_000.0), "the check still armed the timer");
    }

    #[test]
    fn slo_margin_is_configurable() {
        let t = ScheduleTrigger::new(10, 60.0).with_slo_margin(7.5);
        assert_eq!(t.slo_margin_s, 7.5);
        assert_eq!(ScheduleTrigger::default().slo_margin_s, DEFAULT_SLO_MARGIN_S);
    }

    #[test]
    fn explicit_arming_sets_the_baseline_once() {
        let mut t = ScheduleTrigger::new(100, 60.0);
        t.arm_if_unarmed(500.0);
        t.arm_if_unarmed(900.0); // no-op: already armed
        assert_eq!(t.last_invocation_s(), Some(500.0));
        assert_eq!(t.check(1, 559.0), None);
        assert_eq!(t.check(1, 560.0), Some(TriggerReason::Interval));
    }
}
