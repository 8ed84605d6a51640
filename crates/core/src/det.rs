//! DET — the deterministic downhill simplex (Algorithm 1), applied as-is to
//! noisy observations.
//!
//! Every evaluation (vertex or trial) receives exactly one sample of
//! duration `sampling.initial_dt`; the algorithm never resamples and treats
//! the observed values as truth. On a noisy objective this is the paper's
//! straw baseline: it converges, but often to a point far from the true
//! minimum because noise corrupts the vertex ordering.

use crate::algorithm::Method;
use crate::config::SimplexConfig;
use crate::session::Driver;

/// The deterministic Nelder–Mead simplex (paper Algorithm 1).
#[derive(Debug, Clone)]
pub struct Det {
    /// Coefficients and sampling policy.
    pub cfg: SimplexConfig,
}

impl Default for Det {
    fn default() -> Self {
        // DET is the classic algorithm: one evaluation per point, no
        // background refinement of vertices while it deliberates.
        Det {
            cfg: SimplexConfig {
                continuous: false,
                ..SimplexConfig::default()
            },
        }
    }
}

impl Det {
    /// DET with default configuration.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Method for Det {
    fn config(&self) -> &SimplexConfig {
        &self.cfg
    }

    fn driver(&self) -> Driver {
        Driver::Det
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::random_uniform;
    use crate::termination::{StopReason, Termination};
    use stoch_eval::clock::TimeMode;
    use stoch_eval::functions::{Rosenbrock, Sphere};
    use stoch_eval::noise::{ConstantNoise, ZeroNoise};
    use stoch_eval::objective::Objective;
    use stoch_eval::sampler::Noisy;

    #[test]
    fn det_solves_noise_free_sphere() {
        let obj = Noisy::new(Sphere::new(3), ZeroNoise);
        let init = random_uniform(3, -5.0, 5.0, 11);
        let res = Det::new().run(
            &obj,
            init,
            Termination::tolerance(1e-12),
            TimeMode::Parallel,
            1,
        );
        assert_eq!(res.stop, StopReason::Tolerance);
        let f = Sphere::new(3).value(&res.best_point);
        assert!(f < 1e-8, "final value {f}");
    }

    #[test]
    fn det_solves_noise_free_rosenbrock_2d() {
        let obj = Noisy::new(Rosenbrock::new(2), ZeroNoise);
        let init = random_uniform(2, -2.0, 2.0, 5);
        let res = Det::new().run(
            &obj,
            init,
            Termination::tolerance(1e-14),
            TimeMode::Parallel,
            2,
        );
        let f = Rosenbrock::new(2).value(&res.best_point);
        assert!(f < 1e-6, "final value {f}");
        assert!((res.best_point[0] - 1.0).abs() < 1e-2);
    }

    #[test]
    fn det_converges_prematurely_under_heavy_noise() {
        // The whole point of the paper: DET terminates on a noisy function,
        // but far from the optimum.
        let obj = Noisy::new(Rosenbrock::new(3), ConstantNoise(1000.0));
        let init = random_uniform(3, -6.0, 3.0, 3);
        let res = Det::new().run(
            &obj,
            init,
            Termination {
                tolerance: Some(1e-3),
                max_time: Some(1e5),
                max_iterations: Some(20_000),
            },
            TimeMode::Parallel,
            3,
        );
        let f = Rosenbrock::new(3).value(&res.best_point);
        assert!(f > 1e-3, "DET should not reach the optimum, got {f}");
    }

    #[test]
    fn det_respects_iteration_cap() {
        let obj = Noisy::new(Sphere::new(2), ConstantNoise(10.0));
        let init = random_uniform(2, -5.0, 5.0, 7);
        let res = Det::new().run(
            &obj,
            init,
            Termination {
                tolerance: None,
                max_time: None,
                max_iterations: Some(25),
            },
            TimeMode::Parallel,
            4,
        );
        assert_eq!(res.stop, StopReason::MaxIterations);
        assert_eq!(res.iterations, 25);
        assert_eq!(res.trace.len(), 25);
    }

    #[test]
    fn det_trace_is_monotone_in_time() {
        let obj = Noisy::new(Sphere::new(2), ConstantNoise(1.0));
        let init = random_uniform(2, -5.0, 5.0, 9);
        let res = Det::new().run(
            &obj,
            init,
            Termination {
                tolerance: None,
                max_time: None,
                max_iterations: Some(50),
            },
            TimeMode::Parallel,
            5,
        );
        let pts = res.trace.points();
        for w in pts.windows(2) {
            assert!(w[1].time >= w[0].time);
            assert_eq!(w[1].iteration, w[0].iteration + 1);
        }
    }
}
