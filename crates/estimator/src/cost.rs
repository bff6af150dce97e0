//! Monetary cost model of hybrid resources, following Table 1 of the paper
//! ("IBM Cloud Pricing"): standard VMs, high-end (accelerated) VMs, and QPUs.
//! QPU-hours cost two orders of magnitude more than even high-end VM-hours,
//! which is the economic argument behind key idea #2 (trade cheap classical
//! time for expensive quantum time).

/// Classical/quantum resource classes priced in Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceClass {
    /// Standard VM: 4–32 vCPUs, 16–64 GB RAM.
    StandardVm,
    /// High-end VM: 64+ vCPUs, up to 6 TB RAM, GPU/FPGA accelerators.
    HighEndVm,
    /// Quantum processing unit.
    Qpu,
}

/// Price card of one resource class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Price {
    /// Price per task in dollars.
    pub per_task_usd: f64,
    /// Price per hour in dollars.
    pub per_hour_usd: f64,
}

/// The full pricing table (Table 1, midpoints of the reported ranges).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PricingTable {
    /// Standard VM pricing.
    pub standard_vm: Price,
    /// High-end VM pricing.
    pub high_end_vm: Price,
    /// QPU pricing.
    pub qpu: Price,
}

impl Default for PricingTable {
    fn default() -> Self {
        PricingTable {
            standard_vm: Price { per_task_usd: 0.5, per_hour_usd: 3.0 },
            high_end_vm: Price { per_task_usd: 5.0, per_hour_usd: 25.0 },
            qpu: Price { per_task_usd: 100.0, per_hour_usd: 4500.0 },
        }
    }
}

impl PricingTable {
    /// Price card for a resource class.
    pub fn price(&self, class: ResourceClass) -> Price {
        match class {
            ResourceClass::StandardVm => self.standard_vm,
            ResourceClass::HighEndVm => self.high_end_vm,
            ResourceClass::Qpu => self.qpu,
        }
    }

    /// Dollar cost of occupying a resource class for `seconds` (pro-rated hourly price).
    pub(crate) fn usage_cost_usd(&self, class: ResourceClass, seconds: f64) -> f64 {
        self.price(class).per_hour_usd * seconds.max(0.0) / 3600.0
    }

    /// Dollar cost of a hybrid job: quantum seconds on a QPU plus classical
    /// seconds on a standard or high-end VM.
    pub fn hybrid_job_cost_usd(
        &self,
        quantum_s: f64,
        classical_s: f64,
        uses_accelerator: bool,
    ) -> f64 {
        let classical_class =
            if uses_accelerator { ResourceClass::HighEndVm } else { ResourceClass::StandardVm };
        self.usage_cost_usd(ResourceClass::Qpu, quantum_s)
            + self.usage_cost_usd(classical_class, classical_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qpu_hours_cost_two_orders_of_magnitude_more_than_vms() {
        let t = PricingTable::default();
        assert!(t.qpu.per_hour_usd / t.high_end_vm.per_hour_usd >= 100.0);
        assert!(t.qpu.per_hour_usd / t.standard_vm.per_hour_usd >= 1000.0);
    }

    #[test]
    fn usage_cost_is_prorated() {
        let t = PricingTable::default();
        let one_hour = t.usage_cost_usd(ResourceClass::Qpu, 3600.0);
        let half_hour = t.usage_cost_usd(ResourceClass::Qpu, 1800.0);
        assert!((one_hour - t.qpu.per_hour_usd).abs() < 1e-9);
        assert!((half_hour * 2.0 - one_hour).abs() < 1e-9);
        assert_eq!(t.usage_cost_usd(ResourceClass::StandardVm, -5.0), 0.0);
    }

    #[test]
    fn hybrid_cost_uses_accelerator_pricing_when_requested() {
        let t = PricingTable::default();
        let cheap = t.hybrid_job_cost_usd(10.0, 100.0, false);
        let accel = t.hybrid_job_cost_usd(10.0, 100.0, true);
        assert!(accel > cheap);
        // Quantum share dominates for equal durations.
        let q_only = t.hybrid_job_cost_usd(10.0, 0.0, false);
        let c_only = t.hybrid_job_cost_usd(0.0, 10.0, false);
        assert!(q_only > 100.0 * c_only);
    }
}
