//! Named QPU fleets replicating the IBM Quantum devices used in the paper's
//! evaluation (§8): the 27-qubit Falcons (cairo, hanoi, kolkata, mumbai,
//! algiers, auckland), the 16-qubit guadalupe, and the 7-qubit lagos / nairobi.
//!
//! Device *quality factors* are chosen so that the spatial fidelity variance of
//! Figure 2(b) (≈38% best-to-worst spread on a 12-qubit GHZ circuit) is
//! reproduced, with auckland the best device and algiers the worst.

use crate::qpu::{Qpu, QpuModel, ResourceClass, TemplateQpu};
use crate::queue::JobQueue;
use rand::Rng;

/// A QPU plus its job queue — one entry of the simulated quantum cluster.
#[derive(Debug, Clone)]
pub struct FleetMember {
    /// The device.
    pub qpu: Qpu,
    /// The device's job queue (simulated time flow).
    pub queue: JobQueue,
}

/// A collection of QPUs forming the quantum side of the hybrid cluster.
#[derive(Debug, Clone, Default)]
pub struct Fleet {
    members: Vec<FleetMember>,
}

/// `(name, quality, model)` specification of the default 8-QPU evaluation fleet.
/// Lower quality value = better device. The ordering of qualities reproduces the
/// Fig. 2(b) fidelity ordering: auckland > hanoi > cairo > hanoi… etc.
fn default_fleet_spec() -> Vec<(&'static str, f64, QpuModel)> {
    vec![
        ("auckland", 0.70, QpuModel::falcon_27()),
        ("hanoi", 0.85, QpuModel::falcon_27()),
        ("cairo", 1.00, QpuModel::falcon_27()),
        ("kolkata", 1.20, QpuModel::falcon_27()),
        ("mumbai", 1.25, QpuModel::falcon_27()),
        ("algiers", 1.40, QpuModel::falcon_27()),
        ("guadalupe", 1.10, QpuModel::falcon_16()),
        ("lagos", 0.95, QpuModel::falcon_7()),
    ]
}

impl Fleet {
    /// The default 8-QPU fleet used by the end-to-end evaluation (Figures 6, 8).
    pub fn ibm_default<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let members = default_fleet_spec()
            .into_iter()
            .map(|(name, quality, model)| FleetMember {
                qpu: Qpu::new(format!("ibm_{name}"), model, quality, rng),
                queue: JobQueue::new(),
            })
            .collect();
        Fleet { members }
    }

    /// The six 27-qubit Falcons of the Figure 2(b) spatial-variance experiment.
    pub fn falcon_six<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let members = default_fleet_spec()
            .into_iter()
            .filter(|(_, _, m)| m.num_qubits() == 27)
            .map(|(name, quality, model)| FleetMember {
                qpu: Qpu::new(format!("ibm_{name}"), model, quality, rng),
                queue: JobQueue::new(),
            })
            .collect();
        Fleet { members }
    }

    /// A scaled fleet of `n` 27-qubit devices with qualities interpolated over
    /// the default range — used by the cluster-size scalability study (Fig. 9a/9c).
    pub fn scaled<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        assert!(n >= 1);
        let members = (0..n)
            .map(|i| {
                let quality = 0.7 + 0.7 * (i as f64 / n.max(2) as f64);
                FleetMember {
                    qpu: Qpu::new(format!("qpu_{i:02}"), QpuModel::falcon_27(), quality, rng),
                    queue: JobQueue::new(),
                }
            })
            .collect();
        Fleet { members }
    }

    /// A heterogeneous federation-style fleet mixing resource classes and
    /// regions: four superconducting Falcons split across `us-east` and
    /// `eu-central`, one premium all-to-all ion trap, and one near-free
    /// simulator mirroring the Falcon topology. Used by the federation
    /// scenarios (cost × fidelity × turnaround placement studies).
    pub fn heterogeneous<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let spec: Vec<(&str, f64, QpuModel, ResourceClass, &str, f64)> = vec![
            (
                "auckland",
                0.70,
                QpuModel::falcon_27(),
                ResourceClass::Superconducting,
                "us-east",
                1.2,
            ),
            ("hanoi", 0.85, QpuModel::falcon_27(), ResourceClass::Superconducting, "us-east", 1.0),
            (
                "cairo",
                1.00,
                QpuModel::falcon_27(),
                ResourceClass::Superconducting,
                "eu-central",
                0.8,
            ),
            (
                "kolkata",
                1.20,
                QpuModel::falcon_27(),
                ResourceClass::Superconducting,
                "eu-central",
                0.6,
            ),
            ("ion_forte", 0.60, QpuModel::trapped_ion(25), ResourceClass::IonTrap, "us-east", 3.5),
            ("sim_aer", 1.35, QpuModel::falcon_27(), ResourceClass::Simulator, "eu-central", 0.05),
        ];
        let members = spec
            .into_iter()
            .map(|(name, quality, model, class, region, cost)| FleetMember {
                qpu: Qpu::new(name, model, quality, rng)
                    .with_resource_class(class)
                    .with_region(region)
                    .with_cost_per_shot(cost),
                queue: JobQueue::new(),
            })
            .collect();
        Fleet { members }
    }

    /// Build a fleet from explicit members.
    pub fn from_members(members: Vec<FleetMember>) -> Self {
        Fleet { members }
    }

    /// Number of QPUs in the fleet.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` if the fleet has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// All members.
    pub fn members(&self) -> &[FleetMember] {
        &self.members
    }

    /// Mutable access to all members.
    pub fn members_mut(&mut self) -> &mut [FleetMember] {
        &mut self.members
    }

    /// Append an elastic member at the fleet tail (autoscaler grow path) and
    /// return its flat index. Tail-append keeps every existing flat QPU index
    /// stable, which is what lets the journaled control plane scale capacity
    /// without renumbering in-flight placements.
    pub fn push_member(&mut self, member: FleetMember) -> usize {
        self.members.push(member);
        self.members.len() - 1
    }

    /// Remove and return the tail member (autoscaler shrink path), or `None`
    /// if the fleet is empty or the tail still has work — a queued, running,
    /// or undrained-completion member must not be retired, or its jobs (and
    /// their completion records) would vanish mid-flight.
    pub fn pop_member(&mut self) -> Option<FleetMember> {
        let tail = self.members.last()?;
        if tail.queue.pending_len() > 0
            || tail.queue.is_busy()
            || !tail.queue.completed().is_empty()
        {
            return None;
        }
        self.members.pop()
    }

    /// Member by device name.
    pub fn by_name(&self, name: &str) -> Option<&FleetMember> {
        self.members.iter().find(|m| m.qpu.name == name)
    }

    /// Template QPUs (one per model) over the fleet.
    pub fn template_qpus(&self) -> Vec<TemplateQpu> {
        let devices: Vec<Qpu> = self.members.iter().map(|m| m.qpu.clone()).collect();
        TemplateQpu::from_devices(&devices)
    }

    /// Largest QPU size in the fleet.
    pub fn max_qubits(&self) -> u32 {
        self.members.iter().map(|m| m.qpu.num_qubits()).max().unwrap_or(0)
    }

    /// Advance every member's queue to `target_s` and recalibrate devices at
    /// every calibration boundary the advance crosses: each elapsed boundary
    /// is its own epoch, stamped at the boundary instant.
    pub fn advance_to<R: Rng + ?Sized>(&mut self, target_s: f64, rng: &mut R) {
        for m in &mut self.members {
            m.queue.advance_to(target_s);
        }
        self.sync_calibrations(target_s, rng);
    }

    /// Recalibrate (only) the devices whose boundary has passed by `now_s`
    /// without advancing any queue — plan-time freshness for callers that
    /// compute estimates between queue advances.
    pub fn sync_calibrations<R: Rng + ?Sized>(&mut self, now_s: f64, rng: &mut R) {
        for m in &mut self.members {
            while m.qpu.clock.boundary_due(now_s) {
                let boundary = m.qpu.clock.next_boundary_s;
                m.qpu.recalibrate(boundary, rng);
            }
        }
    }

    /// Fleet-wide calibration epoch: the sum of every member's epoch. It is
    /// monotonic and changes whenever *any* device recalibrates, so estimate
    /// tables stamped with it are stale iff the fleet epoch moved on.
    pub fn calibration_epoch(&self) -> u64 {
        self.members.iter().map(|m| m.qpu.clock.epoch).sum()
    }

    /// Schedule a maintenance window on every device hosted in `region` —
    /// a seeded regional outage. Returns how many devices were affected.
    pub fn schedule_region_outage(&mut self, region: &str, start_s: f64, end_s: f64) -> usize {
        let mut affected = 0;
        for m in &mut self.members {
            if m.qpu.region == region {
                m.qpu.add_maintenance_window(start_s, end_s);
                affected += 1;
            }
        }
        affected
    }

    /// The same fleet with every member recalibrating every `period_s`
    /// seconds (next boundaries snap to multiples of the new period after
    /// `now_s`) — drift scenarios shorten the cadence to force crossovers.
    pub fn with_calibration_period(mut self, period_s: f64, now_s: f64) -> Self {
        for m in &mut self.members {
            m.qpu.set_calibration_period(period_s, now_s);
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Earliest upcoming recalibration boundary across the fleet.
    fn next_boundary_s(fleet: &Fleet) -> Option<f64> {
        fleet.members().iter().map(|m| m.qpu.clock.next_boundary_s).min_by(|a, b| a.total_cmp(b))
    }

    #[test]
    fn default_fleet_has_eight_named_devices() {
        let mut rng = StdRng::seed_from_u64(1);
        let fleet = Fleet::ibm_default(&mut rng);
        assert_eq!(fleet.len(), 8);
        assert!(fleet.by_name("ibm_auckland").is_some());
        assert!(fleet.by_name("ibm_algiers").is_some());
        assert!(fleet.by_name("ibm_lagos").is_some());
        assert!(fleet.by_name("does_not_exist").is_none());
        assert_eq!(fleet.max_qubits(), 27);
    }

    #[test]
    fn falcon_six_are_all_27_qubits() {
        let mut rng = StdRng::seed_from_u64(2);
        let fleet = Fleet::falcon_six(&mut rng);
        assert_eq!(fleet.len(), 6);
        assert!(fleet.members().iter().all(|m| m.qpu.num_qubits() == 27));
    }

    #[test]
    fn quality_ordering_reflected_in_calibration() {
        let mut rng = StdRng::seed_from_u64(3);
        let fleet = Fleet::falcon_six(&mut rng);
        let best = fleet.by_name("ibm_auckland").unwrap();
        let worst = fleet.by_name("ibm_algiers").unwrap();
        assert!(
            best.qpu.calibration.mean_two_qubit_error()
                < worst.qpu.calibration.mean_two_qubit_error()
        );
    }

    #[test]
    fn scaled_fleet_sizes() {
        let mut rng = StdRng::seed_from_u64(4);
        for n in [4usize, 8, 16] {
            let fleet = Fleet::scaled(n, &mut rng);
            assert_eq!(fleet.len(), n);
        }
    }

    #[test]
    fn heterogeneous_fleet_mixes_classes_and_regions() {
        let mut rng = StdRng::seed_from_u64(21);
        let fleet = Fleet::heterogeneous(&mut rng);
        assert_eq!(fleet.len(), 6);
        let classes: Vec<ResourceClass> =
            fleet.members().iter().map(|m| m.qpu.resource_class).collect();
        assert!(classes.contains(&ResourceClass::Superconducting));
        assert!(classes.contains(&ResourceClass::IonTrap));
        assert!(classes.contains(&ResourceClass::Simulator));
        let costs: Vec<f64> = fleet.members().iter().map(|m| m.qpu.cost_per_shot).collect();
        assert_eq!(costs.len(), 6);
        assert!(costs.iter().all(|&c| c > 0.0));
        // The simulator is the cheapest resource, the ion trap the priciest.
        let sim = fleet.by_name("sim_aer").unwrap();
        assert!(costs.iter().all(|&c| c >= sim.qpu.cost_per_shot));
        let ion = fleet.by_name("ion_forte").unwrap();
        assert!(costs.iter().all(|&c| c <= ion.qpu.cost_per_shot));
    }

    #[test]
    fn region_outage_holes_only_that_region() {
        let mut rng = StdRng::seed_from_u64(22);
        let mut fleet = Fleet::heterogeneous(&mut rng);
        let affected = fleet.schedule_region_outage("eu-central", 1000.0, 2000.0);
        assert_eq!(affected, 3);
        let in_maintenance_at = |t: f64| -> Vec<usize> {
            (0..fleet.len()).filter(|&i| fleet.members()[i].qpu.in_maintenance(t)).collect()
        };
        assert!(in_maintenance_at(500.0).is_empty());
        let down = in_maintenance_at(1500.0);
        assert_eq!(down.len(), 3);
        assert!(down.iter().all(|&i| fleet.members()[i].qpu.region == "eu-central"));
        assert!(in_maintenance_at(2000.0).is_empty(), "window end is exclusive");
    }

    #[test]
    fn template_qpus_cover_models() {
        let mut rng = StdRng::seed_from_u64(5);
        let fleet = Fleet::ibm_default(&mut rng);
        let templates = fleet.template_qpus();
        // Three models in the default fleet: falcon-27, falcon-16, falcon-7.
        assert_eq!(templates.len(), 3);
        let t27 = templates.iter().find(|t| t.num_qubits() == 27).unwrap();
        assert_eq!(t27.member_devices.len(), 6);
    }

    #[test]
    fn advance_recalibrates_after_period() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut fleet = Fleet::ibm_default(&mut rng);
        let before_cycle = fleet.members()[0].qpu.calibration.cycle;
        fleet.advance_to(100.0, &mut rng);
        assert_eq!(fleet.members()[0].qpu.calibration.cycle, before_cycle);
        fleet.advance_to(4000.0, &mut rng);
        assert_eq!(fleet.members()[0].qpu.calibration.cycle, before_cycle + 1);
        // The calibration snapshot is stamped at the boundary, not the target.
        assert_eq!(fleet.members()[0].qpu.calibration.timestamp_s, 3600.0);
    }

    #[test]
    fn advance_crosses_every_elapsed_boundary() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut fleet = Fleet::ibm_default(&mut rng);
        assert_eq!(fleet.calibration_epoch(), 0);
        assert_eq!(next_boundary_s(&fleet), Some(3600.0));
        // Jumping 3 periods ahead recalibrates three times per member.
        fleet.advance_to(3.5 * 3600.0, &mut rng);
        assert_eq!(fleet.calibration_epoch(), 3 * fleet.len() as u64);
        assert!(fleet.members().iter().all(|m| m.qpu.calibration.cycle == 3));
        assert_eq!(next_boundary_s(&fleet), Some(4.0 * 3600.0));
    }

    #[test]
    fn sync_calibrations_refreshes_without_touching_queues() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut fleet = Fleet::ibm_default(&mut rng);
        fleet.members_mut()[0].queue.enqueue(1, 50.0);
        fleet.sync_calibrations(4000.0, &mut rng);
        assert!(fleet.members().iter().all(|m| m.qpu.clock.epoch == 1));
        // The queue did not advance: the enqueued job is still pending.
        assert_eq!(fleet.members()[0].queue.pending_len(), 1);
    }

    #[test]
    fn push_and_pop_member_keep_existing_indices_stable() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut fleet = Fleet::falcon_six(&mut rng);
        let names: Vec<String> = fleet.members().iter().map(|m| m.qpu.name.clone()).collect();
        let elastic = FleetMember {
            qpu: Qpu::new("sim_elastic_0", QpuModel::falcon_27(), 1.3, &mut rng)
                .with_resource_class(ResourceClass::Simulator),
            queue: JobQueue::new(),
        };
        let index = fleet.push_member(elastic);
        assert_eq!(index, 6, "elastic capacity appends at the tail");
        for (i, name) in names.iter().enumerate() {
            assert_eq!(&fleet.members()[i].qpu.name, name, "existing indices untouched");
        }
        let popped = fleet.pop_member().expect("idle tail retires");
        assert_eq!(popped.qpu.name, "sim_elastic_0");
        assert_eq!(fleet.len(), 6);
    }

    #[test]
    fn pop_member_refuses_a_tail_with_work() {
        let mut rng = StdRng::seed_from_u64(32);
        let mut fleet = Fleet::scaled(2, &mut rng);
        fleet.members_mut()[1].queue.enqueue(7, 50.0);
        assert!(fleet.pop_member().is_none(), "queued work blocks retirement");
        fleet.members_mut()[1].queue.advance_to(10.0);
        assert!(fleet.pop_member().is_none(), "a running job blocks retirement");
        fleet.members_mut()[1].queue.advance_to(100.0);
        assert!(fleet.pop_member().is_none(), "undrained completions block retirement");
        fleet.members_mut()[1].queue.take_completed();
        assert!(fleet.pop_member().is_some(), "a drained idle tail retires");
        assert!(Fleet::from_members(Vec::new()).pop_member().is_none(), "empty fleet");
    }

    #[test]
    fn calibration_period_override_moves_boundaries() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut fleet = Fleet::ibm_default(&mut rng).with_calibration_period(600.0, 0.0);
        assert_eq!(next_boundary_s(&fleet), Some(600.0));
        fleet.advance_to(650.0, &mut rng);
        assert_eq!(fleet.calibration_epoch(), fleet.len() as u64);
        assert_eq!(next_boundary_s(&fleet), Some(1200.0));
    }
}
