//! MQT-Bench-style workload synthesis (§8.1 / §8.2 of the paper).
//!
//! The paper generates "over 70,000 benchmark circuits, 2 to 130 qubits in
//! size" from a benchmark library and feeds them to the cloud simulation with
//! "random quantum circuits, number of shots, and circuit sizes, following a
//! normal distribution". [`WorkloadGenerator`] reproduces that sampling model.

use crate::circuit::Circuit;
use crate::generators::{self, Algorithm, MaxCutGraph};
use rand::Rng;

/// Configuration of the benchmark-circuit sampling distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Mean number of qubits for sampled circuits.
    pub mean_qubits: f64,
    /// Standard deviation of the number of qubits.
    pub std_qubits: f64,
    /// Minimum number of qubits (paper: 2).
    pub min_qubits: u32,
    /// Maximum number of qubits (paper: 130).
    pub max_qubits: u32,
    /// Mean number of shots.
    pub mean_shots: f64,
    /// Standard deviation of the number of shots.
    pub std_shots: f64,
    /// Minimum shots.
    pub min_shots: u32,
    /// Maximum shots.
    pub max_shots: u32,
}

impl Default for WorkloadConfig {
    /// Defaults matching the paper's evaluation range: 2–130 qubits centred on
    /// NISQ-typical sizes, 100–20,000 shots centred on 4,000.
    fn default() -> Self {
        WorkloadConfig {
            mean_qubits: 16.0,
            std_qubits: 8.0,
            min_qubits: 2,
            max_qubits: 130,
            mean_shots: 4000.0,
            std_shots: 2000.0,
            min_shots: 100,
            max_shots: 20_000,
        }
    }
}

/// Draws a sample from a normal distribution via the Box–Muller transform.
/// Implemented locally to stay within the allowed offline crate set.
pub(crate) fn sample_normal<R: Rng + ?Sized>(mean: f64, std: f64, rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    mean + std * z
}

/// Build a circuit of algorithm family `alg` with `n` qubits.
///
/// `layers` controls the repetition count for the variational/random families
/// (QAOA layers, VQE repetitions, random-circuit depth multiplier).
pub fn build_algorithm<R: Rng + ?Sized>(
    alg: Algorithm,
    n: u32,
    layers: u32,
    rng: &mut R,
) -> Circuit {
    let n = n.max(2);
    let layers = layers.max(1);
    match alg {
        Algorithm::Ghz => generators::ghz(n),
        Algorithm::Qft => generators::qft(n),
        Algorithm::Qaoa => {
            let graph = MaxCutGraph::random(n, 3.0 / f64::from(n.max(4)), rng);
            let gammas: Vec<f64> =
                (0..layers).map(|_| rng.gen_range(0.0..std::f64::consts::PI)).collect();
            let betas: Vec<f64> =
                (0..layers).map(|_| rng.gen_range(0.0..std::f64::consts::PI)).collect();
            generators::qaoa_maxcut(&graph, &gammas, &betas)
        }
        Algorithm::Vqe => generators::vqe_ansatz(n, layers, rng),
        Algorithm::Grover => generators::grover(n),
        Algorithm::WState => generators::w_state(n),
        Algorithm::Random => generators::random_circuit(n, 2 * layers + 2, rng),
    }
}

/// Generator of benchmark circuits following the paper's sampling model.
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    config: WorkloadConfig,
}

impl Default for WorkloadGenerator {
    fn default() -> Self {
        Self::new(WorkloadConfig::default())
    }
}

impl WorkloadGenerator {
    /// Create a generator with the given sampling configuration.
    pub fn new(config: WorkloadConfig) -> Self {
        WorkloadGenerator { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// Sample a circuit width (number of qubits) from the configured normal
    /// distribution, clamped to `[min_qubits, max_qubits]`.
    pub(crate) fn sample_width<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        let w = sample_normal(self.config.mean_qubits, self.config.std_qubits, rng).round();
        (w.max(self.config.min_qubits as f64) as u32).min(self.config.max_qubits)
    }

    /// Sample a shot count from the configured normal distribution, clamped to
    /// `[min_shots, max_shots]`.
    pub(crate) fn sample_shots<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        let s = sample_normal(self.config.mean_shots, self.config.std_shots, rng).round();
        (s.max(self.config.min_shots as f64) as u32).min(self.config.max_shots)
    }

    /// Sample a single benchmark circuit: random algorithm family, width, shot
    /// count, and (for variational families) layer count.
    pub fn sample_circuit<R: Rng + ?Sized>(&self, rng: &mut R) -> Circuit {
        let alg = Algorithm::ALL[rng.gen_range(0..Algorithm::ALL.len())];
        let width = self.sample_width(rng);
        let layers = rng.gen_range(1..=3);
        let mut circuit = build_algorithm(alg, width, layers, rng);
        circuit.set_shots(self.sample_shots(rng));
        circuit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sampled_widths_respect_bounds() {
        let gen = WorkloadGenerator::default();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..500 {
            let w = gen.sample_width(&mut rng);
            assert!((2..=130).contains(&w));
        }
    }

    #[test]
    fn sampled_shots_respect_bounds() {
        let gen = WorkloadGenerator::default();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..500 {
            let s = gen.sample_shots(&mut rng);
            assert!((100..=20_000).contains(&s));
        }
    }

    #[test]
    fn normal_sampler_statistics() {
        let mut rng = StdRng::seed_from_u64(77);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_normal(10.0, 2.0, &mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean = {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std = {}", var.sqrt());
    }

    #[test]
    fn batch_has_requested_size_and_valid_circuits() {
        let gen = WorkloadGenerator::new(WorkloadConfig {
            mean_qubits: 8.0,
            std_qubits: 3.0,
            max_qubits: 20,
            ..WorkloadConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(13);
        let batch: Vec<Circuit> = (0..50).map(|_| gen.sample_circuit(&mut rng)).collect();
        assert_eq!(batch.len(), 50);
        for c in &batch {
            assert!(c.num_qubits() >= 2 && c.num_qubits() <= 20);
            assert!(!c.is_empty());
            assert!(c.shots() >= 100);
        }
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        let gen = WorkloadGenerator::default();
        let batch = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..10).map(|_| gen.sample_circuit(&mut rng)).collect::<Vec<Circuit>>()
        };
        let (a, b) = (batch(5), batch(5));
        assert_eq!(a, b);
    }
}
