//! Figure 9(c) — Runtime of the three scheduling stages (job pre-processing,
//! optimization, selection) as the quantum cluster grows from 4 to 8 to 16 QPUs.

use qonductor_bench::synthetic_problem;
use qonductor_scheduler::{HybridScheduler, SchedulerConfig};

fn main() {
    println!(
        "Figure 9(c): scheduling-stage runtimes vs cluster size (100-job batches, 10 repetitions)"
    );
    let scheduler = HybridScheduler::new(SchedulerConfig::default());
    let repetitions = 10;
    println!(
        "{:>8} {:>20} {:>18} {:>16}",
        "QPUs", "pre-processing [s]", "optimization [s]", "selection [s]"
    );
    for &num_qpus in &[4usize, 8, 16] {
        let (mut pre, mut opt, mut sel) = (0.0, 0.0, 0.0);
        for rep in 0..repetitions {
            let (jobs, qpus) = synthetic_problem(100, num_qpus, 100 + rep as u64);
            let timings = scheduler.schedule(jobs, qpus).timings;
            pre += timings.preprocessing_s / f64::from(repetitions);
            opt += timings.optimization_s / f64::from(repetitions);
            sel += timings.selection_s / f64::from(repetitions);
        }
        println!("{:>8} {:>20.6} {:>18.6} {:>16.6}", num_qpus, pre, opt, sel);
    }
    println!();
    println!("(paper: all stage runtimes stay roughly constant as the cluster grows; only");
    println!(" pre-processing grows slightly because estimates are fetched for more QPUs)");
}
