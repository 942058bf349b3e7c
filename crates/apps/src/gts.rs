//! GTS-like gyrokinetic particle-in-cell skeleton.
//!
//! "GTS simulation outputs particle data containing two 2-dimensional
//! particle arrays for zions and electrons, respectively. The two arrays
//! contain seven attributes for each particle, including coordinates,
//! velocity, weight and particle ID." (§IV.A) It "outputs particle data
//! every two simulation cycles".
//!
//! The physics here is a toy toroidal drift (enough to make velocities
//! evolve and particle counts drift between ranks is *not* modelled — each
//! rank keeps its particles, which matches GTS's per-rank output arrays),
//! but the data layout, attribute set, output cadence and volume knob are
//! the paper's.

use adios::{ArrayData, LocalBlock, VarValue};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Attributes per particle.
pub const ATTRS: usize = 7;

/// Attribute names, in storage order.
pub const ATTR_NAMES: [&str; ATTRS] = ["r", "theta", "zeta", "v_par", "v_perp", "weight", "id"];

/// Column index of the parallel velocity (the range query's attribute).
pub const VPAR: usize = 3;
/// Column index of the perpendicular velocity.
pub const VPERP: usize = 4;
/// Column index of the particle weight.
pub const WEIGHT: usize = 5;

/// Configuration of one GTS rank.
#[derive(Debug, Clone, PartialEq)]
pub struct GtsConfig {
    /// Particles of each species per rank. The paper's production runs
    /// put ~110 MB/process on the wire; at 7 f64 attrs that is ~1M
    /// particles per species. Scale down for laptop runs.
    pub particles_per_rank: usize,
    /// Output every this many cycles (paper: 2).
    pub output_interval: u64,
    /// RNG seed (deterministic runs).
    pub seed: u64,
}

impl Default for GtsConfig {
    fn default() -> Self {
        GtsConfig { particles_per_rank: 2000, output_interval: 2, seed: 42 }
    }
}

/// One species' particle arrays in structure-of-rows layout:
/// `data[p * ATTRS + a]` is attribute `a` of particle `p`.
#[derive(Debug, Clone)]
pub struct ParticleArray {
    /// Row-major `n × ATTRS` data.
    pub data: Vec<f64>,
}

impl ParticleArray {
    /// Number of particles.
    pub fn len(&self) -> usize {
        self.data.len() / ATTRS
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// One attribute column, copied out.
    pub fn column(&self, attr: usize) -> Vec<f64> {
        assert!(attr < ATTRS);
        self.data.iter().skip(attr).step_by(ATTRS).copied().collect()
    }
}

/// One GTS rank's state.
pub struct Gts {
    /// This rank.
    pub rank: usize,
    config: GtsConfig,
    zion: ParticleArray,
    electrons: ParticleArray,
    cycle: u64,
}

impl Gts {
    /// Initialize a rank with a thermal particle distribution.
    pub fn new(rank: usize, config: GtsConfig) -> Gts {
        let mut rng = StdRng::seed_from_u64(config.seed ^ (rank as u64).wrapping_mul(0x9E37_79B9));
        let make = |rng: &mut StdRng, species: u64| {
            let n = config.particles_per_rank;
            let mut data = Vec::with_capacity(n * ATTRS);
            for p in 0..n {
                data.push(1.0 + rng.gen::<f64>()); // r in [1, 2)
                data.push(rng.gen::<f64>() * std::f64::consts::TAU); // theta
                data.push(rng.gen::<f64>() * std::f64::consts::TAU); // zeta
                                                                     // Maxwellian-ish velocities via sum of uniforms.
                let v = |rng: &mut StdRng| (0..4).map(|_| rng.gen::<f64>() - 0.5).sum::<f64>();
                data.push(v(rng)); // v_par
                data.push(v(rng).abs()); // v_perp >= 0
                data.push(rng.gen::<f64>()); // weight
                data.push((species * 1_000_000_000 + (rank * n + p) as u64) as f64);
                // id
            }
            ParticleArray { data }
        };
        let zion = make(&mut rng, 0);
        let electrons = make(&mut rng, 1);
        Gts { rank, config, zion, electrons, cycle: 0 }
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Configuration.
    pub fn config(&self) -> &GtsConfig {
        &self.config
    }

    /// The zion particle array.
    pub fn zion(&self) -> &ParticleArray {
        &self.zion
    }

    /// The electron particle array.
    pub fn electrons(&self) -> &ParticleArray {
        &self.electrons
    }

    /// Advance one simulation cycle: a toy gyro-averaged drift push.
    pub fn step(&mut self) {
        let dt = 0.01;
        for arr in [&mut self.zion, &mut self.electrons] {
            for p in arr.data.chunks_exact_mut(ATTRS) {
                let (r, theta, v_par, v_perp) = (p[0], p[1], p[VPAR], p[VPERP]);
                // Toroidal drift: angular advance scaled by 1/r, parallel
                // streaming along zeta, and a magnetic-mirror exchange
                // between v_par and v_perp.
                p[1] = (theta + dt * v_perp / r).rem_euclid(std::f64::consts::TAU);
                p[2] = (p[2] + dt * v_par).rem_euclid(std::f64::consts::TAU);
                let b_grad = 0.05 * (theta.sin());
                p[VPAR] = v_par - dt * b_grad * v_perp;
                p[VPERP] = (v_perp * v_perp + dt * b_grad * v_par * v_perp).max(0.0).sqrt();
                p[0] = (r + dt * 0.1 * v_par * theta.cos()).clamp(1.0, 2.0);
            }
        }
        self.cycle += 1;
    }

    /// True if the simulation outputs this cycle (every
    /// `output_interval`-th cycle, counting from the first).
    pub fn should_output(&self) -> bool {
        self.cycle.is_multiple_of(self.config.output_interval) && self.cycle > 0
    }

    /// Package the current particle data as ADIOS variables: two 2-D
    /// `n × 7` blocks plus the particle-count scalar. The global shape is
    /// per-rank (`ProcessGroup`-pattern output, as GTS does).
    pub fn output_vars(&self) -> Vec<(String, VarValue)> {
        let block = |arr: &ParticleArray| {
            let n = arr.len() as u64;
            VarValue::Block(
                LocalBlock {
                    global_shape: vec![n, ATTRS as u64],
                    offset: vec![0, 0],
                    count: vec![n, ATTRS as u64],
                    data: ArrayData::F64(arr.data.clone()),
                }
                .validated(),
            )
        };
        vec![
            (
                "nparticles".to_string(),
                VarValue::Scalar(adios::ScalarValue::U64(self.zion.len() as u64)),
            ),
            ("zion".to_string(), block(&self.zion)),
            ("electrons".to_string(), block(&self.electrons)),
        ]
    }

    /// Bytes one output step moves for this rank.
    pub fn output_bytes(&self) -> u64 {
        (self.zion.data.len() + self.electrons.data.len()) as u64 * 8 + 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_initialization() {
        let a = Gts::new(3, GtsConfig::default());
        let b = Gts::new(3, GtsConfig::default());
        assert_eq!(a.zion().data, b.zion().data);
        // Different ranks differ.
        let c = Gts::new(4, GtsConfig::default());
        assert_ne!(a.zion().data, c.zion().data);
    }

    #[test]
    fn particle_shape_and_ids() {
        let g = Gts::new(0, GtsConfig { particles_per_rank: 100, ..Default::default() });
        assert_eq!(g.zion().len(), 100);
        assert_eq!(g.zion().data.len(), 100 * ATTRS);
        let ids = g.zion().column(6);
        assert_eq!(ids.len(), 100);
        assert_eq!(ids[0], 0.0);
        assert_eq!(ids[99], 99.0);
        let e_ids = g.electrons().column(6);
        assert_eq!(e_ids[0], 1_000_000_000.0);
    }

    #[test]
    fn step_keeps_particles_in_bounds() {
        let mut g = Gts::new(1, GtsConfig { particles_per_rank: 500, ..Default::default() });
        for _ in 0..50 {
            g.step();
        }
        for p in g.zion().data.chunks_exact(ATTRS) {
            assert!((1.0..=2.0).contains(&p[0]), "r out of bounds: {}", p[0]);
            assert!((0.0..std::f64::consts::TAU).contains(&p[1]));
            assert!(p[VPERP] >= 0.0);
            assert!(p[VPAR].is_finite() && p[VPERP].is_finite());
        }
    }

    #[test]
    fn output_cadence_every_two_cycles() {
        let mut g = Gts::new(0, GtsConfig::default());
        let mut outputs = Vec::new();
        for _ in 0..6 {
            g.step();
            outputs.push(g.should_output());
        }
        assert_eq!(outputs, vec![false, true, false, true, false, true]);
    }

    #[test]
    fn output_vars_shape() {
        let g = Gts::new(2, GtsConfig { particles_per_rank: 10, ..Default::default() });
        let vars = g.output_vars();
        assert_eq!(vars.len(), 3);
        let (_, zion) = &vars[1];
        let VarValue::Block(b) = zion else { panic!() };
        assert_eq!(b.count, vec![10, 7]);
        assert_eq!(g.output_bytes(), (10 * 7 * 2 * 8 + 8) as u64);
    }

    #[test]
    fn velocities_evolve() {
        let mut g = Gts::new(0, GtsConfig { particles_per_rank: 50, ..Default::default() });
        let before = g.zion().column(VPAR);
        for _ in 0..20 {
            g.step();
        }
        let after = g.zion().column(VPAR);
        assert_ne!(before, after, "the push must change velocities");
    }
}
