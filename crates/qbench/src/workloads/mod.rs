//! The five workloads. Each runs in its own process (`--workload <name>`).

pub mod cloudsim;
pub mod dataplane;
pub mod drain;
pub mod invoke;

use crate::harness::{self, Options, RunResult};

/// Run the workload `opts.workload` names, or `None` for an unknown name.
pub fn run(opts: &Options) -> Option<RunResult> {
    Some(match opts.workload.as_str() {
        "invoke-unique" => harness::run::<invoke::InvokeUnique>(opts),
        "invoke-iterative" => harness::run::<invoke::InvokeIterative>(opts),
        "controlplane-drain" => harness::run::<drain::Drain>(opts),
        "cloudsim-hour" => harness::run::<cloudsim::CloudsimHour>(opts),
        "dataplane-mitigated" => harness::run::<dataplane::DataplaneMitigated>(opts),
        _ => return None,
    })
}
