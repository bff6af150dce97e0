//! QPU calibration data: per-qubit coherence times and error rates, per-edge
//! two-qubit gate errors, and the drift of all of these across calibration
//! cycles (§2.1 and §3 of the paper: "noise models … vary across calibration
//! cycles, leading to spatiotemporal performance variance").

use rand::Rng;
use std::collections::BTreeMap;

/// Calibration parameters of a single physical qubit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QubitCalibration {
    /// Energy-relaxation time T1 in microseconds.
    pub t1_us: f64,
    /// Dephasing time T2 in microseconds.
    pub t2_us: f64,
    /// Single-qubit gate (SX/X) error probability.
    pub gate_error: f64,
    /// Readout (measurement) error probability.
    pub readout_error: f64,
    /// Single-qubit gate duration in nanoseconds.
    pub gate_duration_ns: f64,
    /// Readout duration in nanoseconds.
    pub readout_duration_ns: f64,
}

impl QubitCalibration {
    /// A "typical" IBM Falcon-era qubit.
    pub(crate) fn typical() -> Self {
        QubitCalibration {
            t1_us: 100.0,
            t2_us: 80.0,
            gate_error: 3e-4,
            readout_error: 1.5e-2,
            gate_duration_ns: 35.0,
            readout_duration_ns: 700.0,
        }
    }
}

/// Calibration parameters of a two-qubit gate on a coupling-map edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeCalibration {
    /// Two-qubit gate (CX/ECR/CZ) error probability.
    pub gate_error: f64,
    /// Two-qubit gate duration in nanoseconds.
    pub gate_duration_ns: f64,
}

impl EdgeCalibration {
    /// A "typical" IBM Falcon-era CX edge.
    pub(crate) fn typical() -> Self {
        EdgeCalibration { gate_error: 8e-3, gate_duration_ns: 400.0 }
    }
}

/// A full calibration snapshot of a QPU at one calibration cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationData {
    /// Per-qubit calibration, indexed by physical qubit.
    pub qubits: Vec<QubitCalibration>,
    /// Per-edge calibration, keyed by the canonical (min, max) qubit pair.
    edges: BTreeMap<(u32, u32), EdgeCalibration>,
    /// `edges` as a symmetric `edge_width × edge_width` row-major table: the
    /// transpiler and the noise model look an edge up per two-qubit gate.
    edge_table: Vec<Option<EdgeCalibration>>,
    edge_width: usize,
    /// Monotonically increasing calibration-cycle counter.
    pub cycle: u64,
    /// Simulated wall-clock timestamp (seconds) at which this snapshot was taken.
    pub timestamp_s: f64,
}

impl CalibrationData {
    fn new(
        qubits: Vec<QubitCalibration>,
        edges: BTreeMap<(u32, u32), EdgeCalibration>,
        cycle: u64,
        timestamp_s: f64,
    ) -> Self {
        let edge_width = edges.keys().map(|&(_, max)| max as usize + 1).max().unwrap_or(0);
        let mut edge_table = vec![None; edge_width * edge_width];
        for (&(a, b), &edge) in &edges {
            edge_table[a as usize * edge_width + b as usize] = Some(edge);
            edge_table[b as usize * edge_width + a as usize] = Some(edge);
        }
        CalibrationData { qubits, edges, edge_table, edge_width, cycle, timestamp_s }
    }

    /// Number of calibrated qubits.
    pub fn num_qubits(&self) -> usize {
        self.qubits.len()
    }

    /// Per-edge calibration, keyed by the canonical (min, max) qubit pair.
    pub fn edges(&self) -> &BTreeMap<(u32, u32), EdgeCalibration> {
        &self.edges
    }

    /// Calibration for the edge `(a, b)` (order-insensitive), if the edge exists.
    pub fn edge(&self, a: u32, b: u32) -> Option<&EdgeCalibration> {
        let (a, b) = (a as usize, b as usize);
        if a >= self.edge_width || b >= self.edge_width {
            return None;
        }
        self.edge_table[a * self.edge_width + b].as_ref()
    }

    /// Average single-qubit gate error across all qubits.
    pub fn mean_gate_error(&self) -> f64 {
        mean(self.qubits.iter().map(|q| q.gate_error))
    }

    /// Average two-qubit gate error across all edges.
    pub fn mean_two_qubit_error(&self) -> f64 {
        mean(self.edges.values().map(|e| e.gate_error))
    }

    /// Average readout error across all qubits.
    pub fn mean_readout_error(&self) -> f64 {
        mean(self.qubits.iter().map(|q| q.readout_error))
    }

    /// Average T1 in microseconds.
    pub fn mean_t1_us(&self) -> f64 {
        mean(self.qubits.iter().map(|q| q.t1_us))
    }

    /// Average T2 in microseconds.
    pub fn mean_t2_us(&self) -> f64 {
        mean(self.qubits.iter().map(|q| q.t2_us))
    }

    /// Element-wise average of several calibration snapshots. Used to build the
    /// *template QPUs* of §6 ("their calibration data are the average of all
    /// available QPUs of that model").
    ///
    /// All snapshots must have the same number of qubits and edge set; the
    /// cycle/timestamp of the first snapshot is kept.
    pub(crate) fn average(snapshots: &[&CalibrationData]) -> CalibrationData {
        assert!(!snapshots.is_empty(), "cannot average zero calibration snapshots");
        let n = snapshots[0].qubits.len();
        assert!(
            snapshots.iter().all(|s| s.qubits.len() == n),
            "all snapshots must have the same qubit count"
        );
        let k = snapshots.len() as f64;
        let qubits = (0..n)
            .map(|q| {
                let mut acc = QubitCalibration {
                    t1_us: 0.0,
                    t2_us: 0.0,
                    gate_error: 0.0,
                    readout_error: 0.0,
                    gate_duration_ns: 0.0,
                    readout_duration_ns: 0.0,
                };
                for s in snapshots {
                    let c = s.qubits[q];
                    acc.t1_us += c.t1_us;
                    acc.t2_us += c.t2_us;
                    acc.gate_error += c.gate_error;
                    acc.readout_error += c.readout_error;
                    acc.gate_duration_ns += c.gate_duration_ns;
                    acc.readout_duration_ns += c.readout_duration_ns;
                }
                QubitCalibration {
                    t1_us: acc.t1_us / k,
                    t2_us: acc.t2_us / k,
                    gate_error: acc.gate_error / k,
                    readout_error: acc.readout_error / k,
                    gate_duration_ns: acc.gate_duration_ns / k,
                    readout_duration_ns: acc.readout_duration_ns / k,
                }
            })
            .collect();
        let mut edges = BTreeMap::new();
        for key in snapshots[0].edges.keys() {
            let mut err = 0.0;
            let mut dur = 0.0;
            let mut count = 0.0;
            for s in snapshots {
                if let Some(e) = s.edges.get(key) {
                    err += e.gate_error;
                    dur += e.gate_duration_ns;
                    count += 1.0;
                }
            }
            if count > 0.0 {
                edges.insert(
                    *key,
                    EdgeCalibration { gate_error: err / count, gate_duration_ns: dur / count },
                );
            }
        }
        CalibrationData::new(qubits, edges, snapshots[0].cycle, snapshots[0].timestamp_s)
    }
}

fn mean(iter: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in iter {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// A QPU's explicit recalibration schedule: the current calibration *epoch*
/// (one epoch per calibration cycle, so the epoch of the device's live
/// [`CalibrationData`] is always `epoch`) and the simulated instant of the
/// next recalibration boundary. Estimates computed against one epoch are
/// invalid past the boundary (§7: schedules that cross a calibration-cycle
/// boundary must be partitioned and re-estimated), so the scheduler and the
/// batch engine read this clock to know how far ahead a plan may reach.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationClock {
    /// Current calibration epoch (mirrors [`CalibrationData::cycle`]).
    pub epoch: u64,
    /// Simulated time (seconds) of the next recalibration boundary.
    pub next_boundary_s: f64,
    /// Seconds between recalibration boundaries.
    pub period_s: f64,
}

impl CalibrationClock {
    /// A fresh clock at epoch 0 whose first boundary is one period from the
    /// simulated epoch (boundaries sit on multiples of the period).
    pub fn new(period_s: f64) -> Self {
        assert!(period_s > 0.0, "calibration period must be positive");
        CalibrationClock { epoch: 0, next_boundary_s: period_s, period_s }
    }

    /// `true` if a recalibration boundary lies at or before `t_s`.
    pub(crate) fn boundary_due(&self, t_s: f64) -> bool {
        t_s >= self.next_boundary_s
    }

    /// Advance one epoch past a recalibration at `timestamp_s`: the epoch
    /// increments and the next boundary moves to the first period multiple
    /// strictly after the recalibration instant.
    pub(crate) fn advance_past(&mut self, timestamp_s: f64) {
        self.epoch += 1;
        while self.next_boundary_s <= timestamp_s {
            self.next_boundary_s += self.period_s;
        }
    }

    /// Reset to a new period (epoch unchanged): the next boundary becomes the
    /// first multiple of the new period strictly after `now_s`.
    pub(crate) fn reschedule(&mut self, period_s: f64, now_s: f64) {
        assert!(period_s > 0.0, "calibration period must be positive");
        self.period_s = period_s;
        self.next_boundary_s = (now_s / period_s).floor() * period_s + period_s;
    }
}

/// Generator of realistic calibration snapshots and their drift over time.
///
/// `quality` scales error rates: 1.0 is a typical device, values < 1.0 are
/// better-than-typical devices, values > 1.0 are noisier devices. This is how
/// the named fleet reproduces the spatial fidelity variance of Figure 2(b).
#[derive(Debug, Clone, Copy)]
pub struct CalibrationGenerator {
    /// Error-rate scale factor of the device (lower is better).
    pub quality: f64,
    /// Relative spread of per-qubit parameters around the device mean.
    pub spread: f64,
    /// Relative magnitude of drift applied at each new calibration cycle.
    pub drift: f64,
}

impl Default for CalibrationGenerator {
    fn default() -> Self {
        CalibrationGenerator { quality: 1.0, spread: 0.35, drift: 0.15 }
    }
}

impl CalibrationGenerator {
    /// Create a generator with a given device quality factor.
    pub fn with_quality(quality: f64) -> Self {
        CalibrationGenerator { quality, ..Default::default() }
    }

    /// Generate an initial calibration snapshot for `num_qubits` qubits and the
    /// given coupling-map `edges`.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        num_qubits: u32,
        edges: &[(u32, u32)],
        rng: &mut R,
    ) -> CalibrationData {
        let typical = QubitCalibration::typical();
        let typical_edge = EdgeCalibration::typical();
        let qubits = (0..num_qubits)
            .map(|_| QubitCalibration {
                t1_us: (typical.t1_us / self.quality) * self.jitter(rng),
                t2_us: (typical.t2_us / self.quality) * self.jitter(rng),
                gate_error: (typical.gate_error * self.quality) * self.jitter(rng),
                readout_error: (typical.readout_error * self.quality) * self.jitter(rng),
                gate_duration_ns: typical.gate_duration_ns * self.jitter_small(rng),
                readout_duration_ns: typical.readout_duration_ns * self.jitter_small(rng),
            })
            .collect();
        let edges = edges
            .iter()
            .map(|&(a, b)| {
                (
                    (a.min(b), a.max(b)),
                    EdgeCalibration {
                        gate_error: (typical_edge.gate_error * self.quality) * self.jitter(rng),
                        gate_duration_ns: typical_edge.gate_duration_ns * self.jitter_small(rng),
                    },
                )
            })
            .collect();
        CalibrationData::new(qubits, edges, 0, 0.0)
    }

    /// Produce the next calibration cycle from `previous`: every parameter takes
    /// a bounded multiplicative random walk step, modelling the unpredictable
    /// fluctuation between calibration cycles reported by the paper.
    pub(crate) fn drift_cycle<R: Rng + ?Sized>(
        &self,
        previous: &CalibrationData,
        timestamp_s: f64,
        rng: &mut R,
    ) -> CalibrationData {
        let step =
            |v: f64, rng: &mut R| -> f64 { v * (1.0 + rng.gen_range(-self.drift..self.drift)) };
        let qubits = previous
            .qubits
            .iter()
            .map(|q| QubitCalibration {
                t1_us: step(q.t1_us, rng).max(1.0),
                t2_us: step(q.t2_us, rng).max(1.0),
                gate_error: step(q.gate_error, rng).clamp(1e-6, 0.5),
                readout_error: step(q.readout_error, rng).clamp(1e-5, 0.5),
                gate_duration_ns: q.gate_duration_ns,
                readout_duration_ns: q.readout_duration_ns,
            })
            .collect();
        let edges = previous
            .edges
            .iter()
            .map(|(&k, e)| {
                (
                    k,
                    EdgeCalibration {
                        gate_error: step(e.gate_error, rng).clamp(1e-5, 0.8),
                        gate_duration_ns: e.gate_duration_ns,
                    },
                )
            })
            .collect();
        CalibrationData::new(qubits, edges, previous.cycle + 1, timestamp_s)
    }

    fn jitter<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        1.0 + rng.gen_range(-self.spread..self.spread)
    }

    fn jitter_small<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        1.0 + rng.gen_range(-0.05..0.05)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn linear_edges(n: u32) -> Vec<(u32, u32)> {
        (0..n - 1).map(|q| (q, q + 1)).collect()
    }

    #[test]
    fn generated_calibration_has_expected_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let cal = CalibrationGenerator::default().generate(5, &linear_edges(5), &mut rng);
        assert_eq!(cal.num_qubits(), 5);
        assert_eq!(cal.edges().len(), 4);
        assert!(cal.edge(1, 2).is_some());
        assert!(cal.edge(2, 1).is_some(), "edge lookup must be order-insensitive");
        assert!(cal.edge(0, 4).is_none());
    }

    /// The dense table answers every ordered pair — in range, absent, and out
    /// of range — exactly as the map does, for all three constructors.
    #[test]
    fn dense_edge_lookup_equals_the_map_for_every_ordered_pair() {
        let mut rng = StdRng::seed_from_u64(2);
        let gen = CalibrationGenerator::default();
        let edges = [(0, 1), (3, 1), (2, 3), (5, 2)];
        let generated = gen.generate(7, &edges, &mut rng);
        let drifted = gen.drift_cycle(&generated, 60.0, &mut rng);
        let averaged = CalibrationData::average(&[&generated, &drifted]);
        let empty = gen.generate(3, &[], &mut rng);
        for cal in [&generated, &drifted, &averaged, &empty] {
            for a in (0..9).chain([u32::MAX]) {
                for b in (0..9).chain([u32::MAX]) {
                    let expected = cal.edges().get(&(a.min(b), a.max(b)));
                    assert_eq!(cal.edge(a, b), expected, "({a}, {b})");
                }
            }
        }
        assert_eq!(generated.edges().len(), 4);
        assert!(empty.edge(0, 1).is_none());
    }

    #[test]
    fn quality_factor_scales_errors() {
        let mut rng = StdRng::seed_from_u64(1);
        let edges = linear_edges(20);
        let good = CalibrationGenerator::with_quality(0.5).generate(20, &edges, &mut rng);
        let bad = CalibrationGenerator::with_quality(2.0).generate(20, &edges, &mut rng);
        assert!(good.mean_two_qubit_error() < bad.mean_two_qubit_error());
        assert!(good.mean_readout_error() < bad.mean_readout_error());
        assert!(good.mean_t1_us() > bad.mean_t1_us());
    }

    #[test]
    fn drift_changes_values_but_preserves_shape() {
        let mut rng = StdRng::seed_from_u64(9);
        let gen = CalibrationGenerator::default();
        let c0 = gen.generate(8, &linear_edges(8), &mut rng);
        let c1 = gen.drift_cycle(&c0, 3600.0, &mut rng);
        assert_eq!(c1.cycle, 1);
        assert_eq!(c1.num_qubits(), c0.num_qubits());
        assert_eq!(c1.edges().len(), c0.edges().len());
        assert_ne!(c0.mean_two_qubit_error(), c1.mean_two_qubit_error());
        // Drift is bounded: no error escapes its clamp range.
        assert!(c1.qubits.iter().all(|q| q.gate_error <= 0.5 && q.gate_error >= 1e-6));
    }

    #[test]
    fn average_is_element_wise_mean() {
        let mut rng = StdRng::seed_from_u64(4);
        let gen = CalibrationGenerator::default();
        let a = gen.generate(4, &linear_edges(4), &mut rng);
        let b = gen.generate(4, &linear_edges(4), &mut rng);
        let avg = CalibrationData::average(&[&a, &b]);
        let expected = (a.qubits[0].t1_us + b.qubits[0].t1_us) / 2.0;
        assert!((avg.qubits[0].t1_us - expected).abs() < 1e-9);
        let e_expected =
            (a.edge(0, 1).unwrap().gate_error + b.edge(0, 1).unwrap().gate_error) / 2.0;
        assert!((avg.edge(0, 1).unwrap().gate_error - e_expected).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn average_of_nothing_panics() {
        CalibrationData::average(&[]);
    }

    #[test]
    fn clock_advances_epoch_and_boundary() {
        let mut clock = CalibrationClock::new(3600.0);
        assert_eq!(clock.epoch, 0);
        assert_eq!(clock.next_boundary_s, 3600.0);
        assert!(!clock.boundary_due(3599.9));
        assert!(clock.boundary_due(3600.0));
        clock.advance_past(3600.0);
        assert_eq!(clock.epoch, 1);
        assert_eq!(clock.next_boundary_s, 7200.0);
        // A late recalibration (boundary long overdue) skips to the first
        // boundary after the recalibration instant.
        clock.advance_past(20_000.0);
        assert_eq!(clock.epoch, 2);
        assert_eq!(clock.next_boundary_s, 21_600.0);
    }

    #[test]
    fn clock_reschedule_snaps_to_the_new_period() {
        let mut clock = CalibrationClock::new(3600.0);
        clock.advance_past(3600.0);
        clock.reschedule(600.0, 3700.0);
        assert_eq!(clock.epoch, 1, "rescheduling keeps the epoch");
        assert_eq!(clock.next_boundary_s, 4200.0);
        assert_eq!(clock.period_s, 600.0);
    }
}
