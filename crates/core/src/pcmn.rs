//! PC+MN — point-to-point comparison combined with the max-noise gate
//! (Algorithm 4).
//!
//! Both conditions must hold for a move: the simplex first waits until the
//! MN gate (Eq. 2.3) is satisfied across all vertices, then runs the PC
//! comparisons. The paper finds this slightly more accurate than PC with
//! *far* fewer simplex steps (178 vs 900 at `σ0 = 1000`), because each step
//! is taken on better-sampled vertices.

use crate::algorithm::Method;
use crate::config::{MnParams, PcParams, SimplexConfig};
use crate::session::Driver;

/// The combined PC+MN algorithm (paper Algorithm 4).
#[derive(Debug, Clone, Default)]
pub struct PcMn {
    /// Coefficients and sampling policy.
    pub cfg: SimplexConfig,
    /// Max-noise gate constant.
    pub mn: MnParams,
    /// PC comparison parameters. Algorithm 4 as printed uses one standard
    /// error (`k = 1`) with bars at all sites; both remain configurable.
    pub pc: PcParams,
}

impl PcMn {
    /// PC+MN with the paper's defaults (`k_mn = 2`, `k_pc = 1`, all bars).
    pub fn new() -> Self {
        Self::default()
    }
}

impl Method for PcMn {
    fn config(&self) -> &SimplexConfig {
        &self.cfg
    }

    fn driver(&self) -> Driver {
        Driver::PcMn(self.mn, self.pc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::random_uniform;
    use crate::pc::PointComparison;
    use crate::termination::Termination;
    use stoch_eval::clock::TimeMode;
    use stoch_eval::functions::Rosenbrock;
    use stoch_eval::noise::{ConstantNoise, ZeroNoise};
    use stoch_eval::objective::Objective;
    use stoch_eval::sampler::Noisy;

    fn term() -> Termination {
        Termination {
            tolerance: Some(1e-3),
            max_time: Some(3e5),
            max_iterations: Some(5_000),
        }
    }

    #[test]
    fn pcmn_solves_noise_free_rosenbrock() {
        let obj = Noisy::new(Rosenbrock::new(2), ZeroNoise);
        let init = random_uniform(2, -2.0, 2.0, 19);
        let res = PcMn::new().run(
            &obj,
            init,
            Termination::tolerance(1e-12),
            TimeMode::Parallel,
            1,
        );
        assert!(Rosenbrock::new(2).value(&res.best_point) < 1e-5);
    }

    #[test]
    fn pcmn_takes_fewer_steps_than_pc() {
        // The paper's headline contrast: PC+MN imposes stricter conditions,
        // spends more time per vertex, and moves the simplex fewer times.
        // At extreme noise (σ0 = 1000) under a finite time budget both
        // algorithms become resampling-bound and their step counts equalize,
        // so the contrast is asserted at moderate noise, aggregated over
        // eight starts to keep it statistically meaningful.
        let obj = Noisy::new(Rosenbrock::new(4), ConstantNoise(10.0));
        let mut pc_steps = 0u64;
        let mut pcmn_steps = 0u64;
        for s in 0..8 {
            let init = random_uniform(4, -5.0, 5.0, 4000 + s);
            let pc = PointComparison::new().run(&obj, init.clone(), term(), TimeMode::Parallel, s);
            let pcmn = PcMn::new().run(&obj, init, term(), TimeMode::Parallel, s);
            pc_steps += pc.iterations;
            pcmn_steps += pcmn.iterations;
        }
        assert!(
            pcmn_steps < pc_steps,
            "PC+MN steps {pcmn_steps} should be fewer than PC steps {pc_steps}"
        );
    }

    #[test]
    fn pcmn_accuracy_comparable_to_pc() {
        let rosen = Rosenbrock::new(3);
        let obj = Noisy::new(rosen, ConstantNoise(100.0));
        let mut log_ratio_sum = 0.0;
        for s in 0..4 {
            let init = random_uniform(3, -6.0, 3.0, 5000 + s);
            let pc = PointComparison::new().run(&obj, init.clone(), term(), TimeMode::Parallel, s);
            let pcmn = PcMn::new().run(&obj, init, term(), TimeMode::Parallel, s);
            let fp = rosen.value(&pc.best_point).max(1e-12);
            let fpm = rosen.value(&pcmn.best_point).max(1e-12);
            log_ratio_sum += (fpm / fp).log10();
        }
        // "Comparable": within two orders of magnitude across 4 replicates.
        assert!(log_ratio_sum.abs() < 8.0, "ratio sum {log_ratio_sum}");
    }
}
