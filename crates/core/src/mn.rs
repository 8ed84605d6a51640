//! MN — the max-noise algorithm (Algorithm 2).
//!
//! Before each simplex decision, sampling continues at every vertex until
//! the noisiest vertex's variance is small compared to the internal variance
//! of the vertex values (Eq. 2.3):
//!
//! ```text
//! max_i σ_i²(t_i) ≤ k · mean_i (g(θ_i) − ḡ)²
//! ```
//!
//! Early in the run the simplex is spread out (large internal variance), so
//! almost no extra sampling is needed and poor parameter regions are
//! rejected cheaply; late in the run the vertices cluster and sampling
//! automatically deepens until the ordering is trustworthy.
//!
//! Trial points (reflection/expansion/contraction) are sampled until their
//! standard error is no worse than the noisiest simplex vertex before any
//! comparison, mirroring the MW deployment where the d+3 workers sample
//! concurrently.

use crate::algorithm::Method;
use crate::config::{MnParams, SimplexConfig};
use crate::session::Driver;

/// The max-noise algorithm (paper Algorithm 2).
#[derive(Debug, Clone, Default)]
pub struct MaxNoise {
    /// Coefficients and sampling policy.
    pub cfg: SimplexConfig,
    /// The gate constant `k` (Eq. 2.3).
    pub params: MnParams,
}

impl MaxNoise {
    /// MN with the given gate constant `k` and default configuration.
    pub fn with_k(k: f64) -> Self {
        MaxNoise {
            cfg: SimplexConfig::default(),
            params: MnParams { k },
        }
    }
}

impl Method for MaxNoise {
    fn config(&self) -> &SimplexConfig {
        &self.cfg
    }

    fn driver(&self) -> Driver {
        Driver::Mn(self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::det::Det;
    use crate::init::random_uniform;
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
    fn mn_equals_classical_behaviour_without_noise() {
        let obj = Noisy::new(Rosenbrock::new(2), ZeroNoise);
        let init = random_uniform(2, -2.0, 2.0, 21);
        let res = MaxNoise::with_k(2.0).run(
            &obj,
            init,
            Termination::tolerance(1e-12),
            TimeMode::Parallel,
            1,
        );
        let f = Rosenbrock::new(2).value(&res.best_point);
        assert!(f < 1e-5, "final value {f}");
    }

    #[test]
    fn mn_beats_det_under_heavy_noise() {
        // Paired over several initial simplexes; MN should be closer to the
        // true minimum on (geometric) average — the Fig 3.5a effect.
        let rosen = Rosenbrock::new(3);
        let obj = Noisy::new(rosen, ConstantNoise(100.0));
        let mut log_ratio_sum = 0.0;
        let n = 6;
        for s in 0..n {
            let init = random_uniform(3, -6.0, 3.0, 1000 + s);
            let det = Det::new().run(&obj, init.clone(), term(), TimeMode::Parallel, s);
            let mn = MaxNoise::with_k(2.0).run(&obj, init, term(), TimeMode::Parallel, s);
            let fd = rosen.value(&det.best_point).max(1e-12);
            let fm = rosen.value(&mn.best_point).max(1e-12);
            log_ratio_sum += (fm / fd).log10();
        }
        assert!(
            log_ratio_sum < 0.0,
            "MN should beat DET on average, sum log ratio = {log_ratio_sum}"
        );
    }

    #[test]
    fn mn_samples_deeper_than_det() {
        let obj = Noisy::new(Rosenbrock::new(3), ConstantNoise(100.0));
        let init = random_uniform(3, -6.0, 3.0, 77);
        let det = Det::new().run(&obj, init.clone(), term(), TimeMode::Parallel, 9);
        let mn = MaxNoise::with_k(2.0).run(&obj, init, term(), TimeMode::Parallel, 9);
        assert!(
            mn.total_sampling > det.total_sampling,
            "MN {} vs DET {}",
            mn.total_sampling,
            det.total_sampling
        );
    }

    #[test]
    fn mn_k_affects_speed_not_much_the_outcome() {
        // Larger k = looser gate = fewer wait rounds = less sampling time.
        let obj = Noisy::new(Rosenbrock::new(3), ConstantNoise(100.0));
        let init = random_uniform(3, -6.0, 3.0, 33);
        let strict = MaxNoise::with_k(1.0).run(&obj, init.clone(), term(), TimeMode::Parallel, 5);
        let loose = MaxNoise::with_k(5.0).run(&obj, init, term(), TimeMode::Parallel, 5);
        assert!(loose.total_sampling <= strict.total_sampling * 1.5);
    }
}
