//! QPU device models, technologies, and the *template QPUs* used by the
//! resource estimator (§6: a template QPU adopts the basis gate set and
//! coupling map of a QPU model, with calibration data averaged over all
//! devices of that model).

use crate::calibration::{CalibrationClock, CalibrationData, CalibrationGenerator};
use crate::noise::NoiseModel;
use crate::topology::CouplingMap;
use qonductor_circuit::Gate;
use rand::Rng;
use std::sync::Arc;

/// Quantum hardware technology families (§2.2 heterogeneity dimension 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QpuTechnology {
    /// Superconducting transmon devices (IBM, Google).
    Superconducting,
    /// Trapped-ion devices (IonQ, Quantinuum) — all-to-all connectivity,
    /// slower gates, higher fidelity.
    TrappedIon,
    /// Neutral-atom devices (QuEra, Pasqal).
    NeutralAtom,
}

/// The coarse *resource class* a federated scheduler places against: the
/// billing and capacity tier of a device, one level above
/// [`QpuTechnology`]. Real hardware maps technology → class directly;
/// `Simulator` marks classically emulated capacity that shares a hardware
/// model's topology but bills (and degrades) differently.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ResourceClass {
    /// Superconducting hardware (transmon-style devices).
    #[default]
    Superconducting,
    /// Trapped-ion hardware.
    IonTrap,
    /// Classical simulator capacity emulating a hardware model.
    Simulator,
}

impl ResourceClass {
    /// The resource class real hardware of `technology` belongs to.
    pub(crate) fn of_technology(technology: QpuTechnology) -> Self {
        match technology {
            QpuTechnology::Superconducting | QpuTechnology::NeutralAtom => {
                ResourceClass::Superconducting
            }
            QpuTechnology::TrappedIon => ResourceClass::IonTrap,
        }
    }

    /// Default per-shot cost (arbitrary credit units) for this class:
    /// ion traps bill a premium over superconducting devices, simulators
    /// are near-free. Providers override per device.
    pub(crate) fn default_cost_per_shot(self) -> f64 {
        match self {
            ResourceClass::Superconducting => 1.0,
            ResourceClass::IonTrap => 3.0,
            ResourceClass::Simulator => 0.05,
        }
    }
}

/// A scheduled capacity hole: the device accepts no new work in
/// `[start_s, end_s)`. The planner treats window starts as boundaries
/// (like recalibration) and parks straddling jobs until the window ends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaintenanceWindow {
    /// Window start (inclusive), seconds of simulated time.
    pub start_s: f64,
    /// Window end (exclusive), seconds of simulated time.
    pub end_s: f64,
}

impl MaintenanceWindow {
    /// `true` if `t` falls inside the window.
    pub fn contains(&self, t: f64) -> bool {
        t >= self.start_s && t < self.end_s
    }
}

/// A QPU *model* (architecture family): basis gates, coupling map, technology.
/// Multiple physical devices share one model (heterogeneity dimension 2).
#[derive(Debug, Clone, PartialEq)]
pub struct QpuModel {
    /// Model name, e.g. "falcon-r5.11".
    pub name: String,
    /// Hardware technology.
    pub technology: QpuTechnology,
    /// Qubit connectivity.
    pub coupling_map: CouplingMap,
    /// Native basis gates (canonical lowercase gate names).
    pub basis_gates: Vec<String>,
}

impl QpuModel {
    /// IBM Falcon-style 27-qubit superconducting model.
    pub fn falcon_27() -> Self {
        QpuModel {
            name: "falcon-r5.11".into(),
            technology: QpuTechnology::Superconducting,
            coupling_map: CouplingMap::heavy_hex_27(),
            basis_gates: vec!["rz".into(), "sx".into(), "x".into(), "cx".into()],
        }
    }

    /// IBM Falcon-style 16-qubit superconducting model (Guadalupe class).
    pub(crate) fn falcon_16() -> Self {
        QpuModel {
            name: "falcon-r4p".into(),
            technology: QpuTechnology::Superconducting,
            coupling_map: CouplingMap::heavy_hex_16(),
            basis_gates: vec!["rz".into(), "sx".into(), "x".into(), "cx".into()],
        }
    }

    /// IBM Falcon-style 7-qubit superconducting model (Lagos/Nairobi class).
    pub fn falcon_7() -> Self {
        QpuModel {
            name: "falcon-r5.11h".into(),
            technology: QpuTechnology::Superconducting,
            coupling_map: CouplingMap::heavy_hex_7(),
            basis_gates: vec!["rz".into(), "sx".into(), "x".into(), "cx".into()],
        }
    }

    /// Trapped-ion model with all-to-all connectivity over `n` qubits.
    pub(crate) fn trapped_ion(n: u32) -> Self {
        QpuModel {
            name: format!("ion-{n}"),
            technology: QpuTechnology::TrappedIon,
            coupling_map: CouplingMap::full(n),
            basis_gates: vec!["rz".into(), "rx".into(), "ry".into(), "rzz".into()],
        }
    }

    /// Number of qubits of this model.
    pub fn num_qubits(&self) -> u32 {
        self.coupling_map.num_qubits()
    }

    /// `true` if `gate` is native on this model.
    pub fn is_native(&self, gate: Gate) -> bool {
        match gate {
            Gate::Measure | Gate::Barrier | Gate::Delay(_) | Gate::Id => true,
            g => self.basis_gates.iter().any(|b| b == g.name()),
        }
    }
}

/// A physical QPU: a named instance of a model with its own calibration history.
#[derive(Debug, Clone)]
pub struct Qpu {
    /// Device name, e.g. "ibm_cairo".
    pub name: String,
    /// Architecture model.
    pub model: QpuModel,
    /// Current calibration snapshot: immutable once published and shared
    /// with every [`NoiseModel`] built from it; [`Qpu::recalibrate`] swaps
    /// in a fresh one.
    pub calibration: Arc<CalibrationData>,
    /// Device quality factor used when regenerating calibration (lower = better).
    pub quality: f64,
    /// The device's recalibration schedule: current epoch and next boundary
    /// (IBM devices calibrate roughly daily; the simulation default is hourly
    /// to exercise crossovers). Invariant: `clock.epoch == calibration.cycle`.
    pub clock: CalibrationClock,
    /// Billing/capacity tier of the device (federation dimension). Defaults
    /// to the class implied by the model's technology.
    pub resource_class: ResourceClass,
    /// Per-shot cost in provider credit units. Only consulted when a
    /// scheduler enables its cost objective; the default plane never reads it.
    pub cost_per_shot: f64,
    /// Provider region the device is hosted in (outages are scoped per
    /// region in the federation scenarios).
    pub region: String,
    /// Historical availability score in `[0, 1]` (federation metadata; used
    /// by placement strategies for tie-breaking documentation, not by the
    /// default plane).
    pub reliability_score: f64,
    /// Scheduled maintenance windows, ascending by start time.
    pub maintenance: Vec<MaintenanceWindow>,
}

/// Default region devices are hosted in when a provider does not say.
const DEFAULT_REGION: &str = "us-east";

/// Default reliability score for a freshly provisioned device.
const DEFAULT_RELIABILITY: f64 = 0.99;

impl Qpu {
    /// Create a QPU of the given model with freshly generated calibration data.
    pub fn new<R: Rng + ?Sized>(
        name: impl Into<String>,
        model: QpuModel,
        quality: f64,
        rng: &mut R,
    ) -> Self {
        let calibration = CalibrationGenerator::with_quality(quality).generate(
            model.num_qubits(),
            model.coupling_map.edges(),
            rng,
        );
        let resource_class = ResourceClass::of_technology(model.technology);
        Qpu {
            name: name.into(),
            model,
            calibration: Arc::new(calibration),
            quality,
            clock: CalibrationClock::new(3600.0),
            resource_class,
            cost_per_shot: resource_class.default_cost_per_shot(),
            region: DEFAULT_REGION.into(),
            reliability_score: DEFAULT_RELIABILITY,
            maintenance: Vec::new(),
        }
    }

    /// Override the resource class (e.g. to mark a hardware model's
    /// topology as simulator capacity) and reset the per-shot cost to the
    /// class default.
    pub fn with_resource_class(mut self, class: ResourceClass) -> Self {
        self.resource_class = class;
        self.cost_per_shot = class.default_cost_per_shot();
        self
    }

    /// Override the per-shot cost.
    pub fn with_cost_per_shot(mut self, cost: f64) -> Self {
        self.cost_per_shot = cost;
        self
    }

    /// Override the hosting region.
    pub(crate) fn with_region(mut self, region: impl Into<String>) -> Self {
        self.region = region.into();
        self
    }

    /// Schedule a maintenance window (kept sorted by start time).
    pub fn add_maintenance_window(&mut self, start_s: f64, end_s: f64) {
        debug_assert!(end_s > start_s, "maintenance window must be non-empty");
        self.maintenance.push(MaintenanceWindow { start_s, end_s });
        self.maintenance.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
    }

    /// `true` if the device is inside a maintenance window at `t`.
    pub fn in_maintenance(&self, t: f64) -> bool {
        self.maintenance.iter().any(|w| w.contains(t))
    }

    /// Start of the next maintenance window strictly after `now_s`, or
    /// `None` when nothing further is scheduled.
    pub fn next_maintenance_start_after(&self, now_s: f64) -> Option<f64> {
        self.maintenance.iter().map(|w| w.start_s).filter(|&s| s > now_s).min_by(f64::total_cmp)
    }

    /// End of the maintenance window covering `t`, or `None` when the
    /// device is up at `t`.
    pub fn maintenance_end_at(&self, t: f64) -> Option<f64> {
        self.maintenance.iter().find(|w| w.contains(t)).map(|w| w.end_s)
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> u32 {
        self.model.num_qubits()
    }

    /// The noise model induced by the current calibration. The model shares
    /// the device's snapshot (a reference-count bump, no copy).
    pub fn noise_model(&self) -> NoiseModel {
        NoiseModel::new(Arc::clone(&self.calibration))
    }

    /// Advance to the next calibration cycle (drifting all parameters) and
    /// step the epoch clock past `timestamp_s`. The clock's epoch stays in
    /// lock-step with [`CalibrationData::cycle`].
    pub(crate) fn recalibrate<R: Rng + ?Sized>(&mut self, timestamp_s: f64, rng: &mut R) {
        let gen = CalibrationGenerator { quality: self.quality, ..Default::default() };
        self.calibration = Arc::new(gen.drift_cycle(&self.calibration, timestamp_s, rng));
        self.clock.advance_past(timestamp_s);
        debug_assert_eq!(self.clock.epoch, self.calibration.cycle);
    }

    /// Seconds between calibration cycles.
    pub fn calibration_period_s(&self) -> f64 {
        self.clock.period_s
    }

    /// Replace the recalibration cadence (next boundary snaps to the first
    /// multiple of the new period after `now_s`).
    pub fn set_calibration_period(&mut self, period_s: f64, now_s: f64) {
        self.clock.reschedule(period_s, now_s);
    }
}

/// A template QPU: one per model, carrying the model's coupling map / basis
/// gates and the *average* calibration over all devices of that model.
#[derive(Debug, Clone)]
pub struct TemplateQpu {
    /// The represented model.
    pub model: QpuModel,
    /// Averaged calibration data, shared with the template's noise models.
    pub calibration: Arc<CalibrationData>,
    /// Names of the devices averaged into this template.
    pub member_devices: Vec<String>,
}

impl TemplateQpu {
    /// Build the template QPUs for a set of devices, grouping by model name.
    pub(crate) fn from_devices(devices: &[Qpu]) -> Vec<TemplateQpu> {
        let mut by_model: Vec<(String, Vec<&Qpu>)> = Vec::new();
        for d in devices {
            match by_model.iter_mut().find(|(name, _)| *name == d.model.name) {
                Some((_, group)) => group.push(d),
                None => by_model.push((d.model.name.clone(), vec![d])),
            }
        }
        by_model
            .into_iter()
            .map(|(_, group)| {
                let snapshots: Vec<&CalibrationData> =
                    group.iter().map(|d| &*d.calibration).collect();
                TemplateQpu {
                    model: group[0].model.clone(),
                    calibration: Arc::new(CalibrationData::average(&snapshots)),
                    member_devices: group.iter().map(|d| d.name.clone()).collect(),
                }
            })
            .collect()
    }

    /// Noise model induced by the averaged calibration (shares the
    /// template's snapshot, no copy).
    pub fn noise_model(&self) -> NoiseModel {
        NoiseModel::new(Arc::clone(&self.calibration))
    }

    /// Number of qubits of the template's model.
    pub fn num_qubits(&self) -> u32 {
        self.model.num_qubits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn falcon_models_have_expected_sizes() {
        assert_eq!(QpuModel::falcon_27().num_qubits(), 27);
        assert_eq!(QpuModel::falcon_16().num_qubits(), 16);
        assert_eq!(QpuModel::falcon_7().num_qubits(), 7);
    }

    #[test]
    fn basis_gate_membership() {
        let m = QpuModel::falcon_27();
        assert!(m.is_native(Gate::CX));
        assert!(m.is_native(Gate::RZ(0.4)));
        assert!(m.is_native(Gate::Measure));
        assert!(!m.is_native(Gate::H));
        assert!(!m.is_native(Gate::RZZ(0.4)));
        let ion = QpuModel::trapped_ion(11);
        assert!(ion.is_native(Gate::RZZ(0.4)));
        assert!(!ion.is_native(Gate::CX));
    }

    #[test]
    fn qpu_calibration_matches_topology() {
        let mut rng = StdRng::seed_from_u64(8);
        let qpu = Qpu::new("ibm_test", QpuModel::falcon_27(), 1.0, &mut rng);
        assert_eq!(qpu.calibration.num_qubits(), 27);
        assert_eq!(qpu.calibration.edges().len(), qpu.model.coupling_map.edges().len());
    }

    #[test]
    fn recalibration_advances_cycle() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut qpu = Qpu::new("ibm_test", QpuModel::falcon_7(), 1.0, &mut rng);
        let before = qpu.calibration.clone();
        assert_eq!(qpu.clock.epoch, 0);
        assert_eq!(qpu.clock.next_boundary_s, 3600.0);
        qpu.recalibrate(3600.0, &mut rng);
        assert_eq!(qpu.calibration.cycle, before.cycle + 1);
        assert_eq!(qpu.clock.epoch, qpu.calibration.cycle, "clock stays in lock-step");
        assert_eq!(qpu.clock.next_boundary_s, 7200.0);
        assert_ne!(qpu.calibration.mean_two_qubit_error(), before.mean_two_qubit_error());
    }

    #[test]
    fn next_calibration_boundary() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut qpu = Qpu::new("ibm_test", QpuModel::falcon_7(), 1.0, &mut rng);
        assert_eq!(qpu.clock.next_boundary_s, 3600.0);
        // A late recalibration consumes every boundary up to it: the next one
        // is the first period multiple after the recalibration instant.
        let mut rng = StdRng::seed_from_u64(9);
        qpu.recalibrate(20_000.0, &mut rng);
        assert_eq!(qpu.clock.next_boundary_s, 21_600.0);
    }

    #[test]
    fn resource_class_defaults_follow_technology() {
        let mut rng = StdRng::seed_from_u64(8);
        let sc = Qpu::new("ibm_test", QpuModel::falcon_27(), 1.0, &mut rng);
        assert_eq!(sc.resource_class, ResourceClass::Superconducting);
        assert_eq!(sc.cost_per_shot, 1.0);
        let ion = Qpu::new("ion_test", QpuModel::trapped_ion(11), 1.0, &mut rng);
        assert_eq!(ion.resource_class, ResourceClass::IonTrap);
        assert_eq!(ion.cost_per_shot, 3.0);
        let sim = Qpu::new("sim_test", QpuModel::falcon_27(), 1.0, &mut rng)
            .with_resource_class(ResourceClass::Simulator);
        assert_eq!(sim.cost_per_shot, 0.05);
        let custom = sim.with_cost_per_shot(0.2);
        assert_eq!(custom.cost_per_shot, 0.2);
    }

    #[test]
    fn maintenance_windows_sort_and_query() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut qpu = Qpu::new("ibm_test", QpuModel::falcon_7(), 1.0, &mut rng);
        assert!(!qpu.in_maintenance(100.0));
        assert_eq!(qpu.next_maintenance_start_after(0.0), None);
        qpu.add_maintenance_window(500.0, 700.0);
        qpu.add_maintenance_window(100.0, 200.0);
        assert_eq!(qpu.maintenance[0].start_s, 100.0, "windows kept sorted");
        assert!(qpu.in_maintenance(150.0));
        assert!(!qpu.in_maintenance(200.0), "end is exclusive");
        assert_eq!(qpu.next_maintenance_start_after(0.0), Some(100.0));
        assert_eq!(qpu.next_maintenance_start_after(100.0), Some(500.0));
        assert_eq!(qpu.next_maintenance_start_after(600.0), None);
        assert_eq!(qpu.maintenance_end_at(550.0), Some(700.0));
        assert_eq!(qpu.maintenance_end_at(300.0), None);
    }

    #[test]
    fn maintenance_boundary_instants_are_half_open() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut qpu = Qpu::new("ibm_edge", QpuModel::falcon_7(), 1.0, &mut rng);
        qpu.add_maintenance_window(100.0, 200.0);
        // A batch snapshot taken exactly at `start` must see the device masked.
        assert!(qpu.in_maintenance(100.0), "start instant is inclusive");
        assert_eq!(qpu.maintenance_end_at(100.0), Some(200.0));
        // A job dispatched exactly at `end` must not be masked.
        assert!(!qpu.in_maintenance(200.0), "end instant is exclusive");
        assert_eq!(qpu.maintenance_end_at(200.0), None);
        // The window itself agrees with the device-level queries.
        let w = MaintenanceWindow { start_s: 100.0, end_s: 200.0 };
        assert!(w.contains(100.0));
        assert!(!w.contains(200.0));
        // `next_maintenance_start_after` is strictly-after: queried exactly at
        // `start` it reports the next window, never the one just entered.
        assert_eq!(qpu.next_maintenance_start_after(100.0 - f64::EPSILON * 128.0), Some(100.0));
        assert_eq!(qpu.next_maintenance_start_after(100.0), None);
        // Back-to-back windows: the shared instant belongs to the later one.
        qpu.add_maintenance_window(200.0, 250.0);
        assert!(qpu.in_maintenance(200.0), "shared boundary belongs to the later window");
        assert_eq!(qpu.maintenance_end_at(200.0), Some(250.0));
        assert!(!qpu.in_maintenance(250.0));
    }

    #[test]
    fn template_qpus_group_by_model_and_average() {
        let mut rng = StdRng::seed_from_u64(10);
        let devices = vec![
            Qpu::new("ibm_a", QpuModel::falcon_27(), 0.8, &mut rng),
            Qpu::new("ibm_b", QpuModel::falcon_27(), 1.4, &mut rng),
            Qpu::new("ibm_c", QpuModel::falcon_7(), 1.0, &mut rng),
        ];
        let templates = TemplateQpu::from_devices(&devices);
        assert_eq!(templates.len(), 2);
        let t27 = templates.iter().find(|t| t.num_qubits() == 27).unwrap();
        assert_eq!(t27.member_devices.len(), 2);
        let expected = (devices[0].calibration.mean_two_qubit_error()
            + devices[1].calibration.mean_two_qubit_error())
            / 2.0;
        assert!((t27.calibration.mean_two_qubit_error() - expected).abs() < 1e-9);
    }
}
