//! The Anderson et al. (2000) baseline: [`AndersonNm`], the Anderson
//! *convergence criterion* (Eq. 2.4) embedded in the Nelder–Mead loop.
//! This is what the paper evaluates in Table 3.2 / Fig 3.4: sampling at
//! every vertex continues until `σ_i²(t_i) < k1·2^{−l(1+k2)} ∀i`, where `l`
//! is the simplex contraction level, then the classic comparisons run. The
//! paper notes: "here we evaluate their convergence criterion, but do not
//! adopt the other features of their method."

use crate::algorithm::Method;
use crate::config::{AndersonParams, SimplexConfig};
use crate::session::Driver;

/// Nelder–Mead with the Anderson convergence criterion (Eq. 2.4).
#[derive(Debug, Clone, Default)]
pub struct AndersonNm {
    /// Coefficients and sampling policy.
    pub cfg: SimplexConfig,
    /// Criterion constants `k1`, `k2`.
    pub params: AndersonParams,
}

impl AndersonNm {
    /// Criterion with the given `k1` (and `k2 = 0`, as in the paper).
    pub fn with_k1(k1: f64) -> Self {
        AndersonNm {
            cfg: SimplexConfig::default(),
            params: AndersonParams { k1, k2: 0.0 },
        }
    }

    /// The Eq. 2.4 variance ceiling at contraction level `l`. The session
    /// waits until every vertex is below it; trials then receive one
    /// sampling round before comparison, exactly as in MN (Algorithm 2):
    /// both criteria gate only the vertex noise, which keeps the Table 3.2
    /// comparison fair.
    pub(crate) fn threshold(params: AndersonParams, l: i64) -> f64 {
        params.k1 * 2f64.powf(-(l as f64) * (1.0 + params.k2))
    }
}

impl Method for AndersonNm {
    fn config(&self) -> &SimplexConfig {
        &self.cfg
    }

    fn driver(&self) -> Driver {
        Driver::Anderson(self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn threshold_tightens_with_contraction_level() {
        let p = AndersonParams {
            k1: 1024.0,
            k2: 0.0,
        };
        assert_eq!(AndersonNm::threshold(p, 0), 1024.0);
        assert_eq!(AndersonNm::threshold(p, 1), 512.0);
        assert_eq!(AndersonNm::threshold(p, -1), 2048.0);
        let p2 = AndersonParams {
            k1: 1024.0,
            k2: 1.0,
        };
        assert_eq!(AndersonNm::threshold(p2, 1), 256.0);
    }

    #[test]
    fn anderson_nm_solves_noise_free_rosenbrock() {
        let obj = Noisy::new(Rosenbrock::new(2), ZeroNoise);
        let init = random_uniform(2, -2.0, 2.0, 13);
        let res = AndersonNm::with_k1(2f64.powi(10)).run(
            &obj,
            init,
            Termination::tolerance(1e-12),
            TimeMode::Parallel,
            1,
        );
        assert!(Rosenbrock::new(2).value(&res.best_point) < 1e-5);
    }

    #[test]
    fn small_k1_converges_prematurely_relative_to_large_k1() {
        // Table 3.2's headline: overly small k1 yields large errors R with
        // fewer effective iterations' worth of sampling.
        let rosen = Rosenbrock::new(3);
        let obj = Noisy::new(rosen, ConstantNoise(100.0));
        let mut small_err = 0.0;
        let mut large_err = 0.0;
        for s in 0..4 {
            let init = random_uniform(3, -6.0, 3.0, 500 + s);
            let small =
                AndersonNm::with_k1(1.0).run(&obj, init.clone(), term(), TimeMode::Parallel, s);
            let large =
                AndersonNm::with_k1(2f64.powi(20)).run(&obj, init, term(), TimeMode::Parallel, s);
            small_err += rosen.value(&small.best_point).max(1e-12).log10();
            large_err += rosen.value(&large.best_point).max(1e-12).log10();
        }
        assert!(
            small_err >= large_err,
            "small k1 {small_err} should be no more accurate than large k1 {large_err}"
        );
    }
}
