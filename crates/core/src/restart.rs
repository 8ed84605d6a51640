//! Restarted simplex for global optimization (§1.3.5.1: the simplex "has
//! also been used for finding the global minima of non-convex functions...
//! by restarting the simplex").
//!
//! [`RestartedSimplex`] wraps any [`SimplexMethod`]: when a run converges,
//! a fresh random simplex is drawn and the search continues until the total
//! budget is exhausted; the best result across restarts wins.

use crate::algorithm::{Method, SimplexMethod};
use crate::init::random_uniform;
use crate::result::RunResult;
use crate::termination::{StopReason, Termination};
use crate::trace::TracePoint;
use stoch_eval::clock::TimeMode;
use stoch_eval::objective::StochasticObjective;
use stoch_eval::rng::child_seed;

/// A multistart wrapper around any simplex-family method.
#[derive(Debug, Clone)]
pub struct RestartedSimplex {
    /// The inner local method.
    pub inner: SimplexMethod,
    /// Search box lower bound per coordinate (restart draws).
    pub lo: f64,
    /// Search box upper bound per coordinate.
    pub hi: f64,
    /// Upper bound on the number of restarts.
    pub max_restarts: usize,
    /// Minimum number of restarts the budget is sliced for: each restart
    /// gets at most `budget / min_restarts` of virtual time, so a single
    /// stalled run cannot consume the whole budget and reduce the
    /// multistart to one local search.
    pub min_restarts: usize,
}

impl RestartedSimplex {
    /// Restart `inner` from random simplexes in `[lo, hi)^d`.
    pub fn new(inner: SimplexMethod, lo: f64, hi: f64) -> Self {
        RestartedSimplex {
            inner,
            lo,
            hi,
            max_restarts: 16,
            min_restarts: 4,
        }
    }

    /// Run until the total virtual-time budget in `term` is exhausted.
    pub fn run<F: StochasticObjective>(
        &self,
        objective: &F,
        term: Termination,
        mode: TimeMode,
        seed: u64,
    ) -> RunResult {
        let d = objective.dim();
        let budget = term.max_time.unwrap_or(1e5);
        let mut best: Option<RunResult> = None;
        let mut elapsed_total = 0.0;
        let mut sampling_total = 0.0;
        let mut iterations_total = 0;
        let mut merged_trace = crate::trace::Trace::new();

        for restart in 0..self.max_restarts {
            let remaining = budget - elapsed_total;
            if remaining <= 0.0 {
                break;
            }
            let slice = remaining.min(budget / self.min_restarts.max(1) as f64);
            let run_term = Termination {
                tolerance: term.tolerance,
                max_time: Some(slice),
                max_iterations: term.max_iterations,
            };
            let init = random_uniform(d, self.lo, self.hi, child_seed(seed, restart as u64));
            let res = self.inner.run(
                objective,
                init,
                run_term,
                mode,
                child_seed(seed.wrapping_add(1), restart as u64),
            );
            for p in res.trace.points() {
                merged_trace.push(TracePoint {
                    time: p.time + elapsed_total,
                    iteration: p.iteration + iterations_total,
                    ..*p
                });
            }
            let res_stop = res.stop;
            elapsed_total += res.elapsed;
            sampling_total += res.total_sampling;
            iterations_total += res.iterations;
            let better = best
                .as_ref()
                .map(|b| res.best_observed < b.best_observed)
                .unwrap_or(true);
            if better {
                best = Some(res);
            }
            // The budget ran dry mid-run.
            if res_stop == StopReason::WallTime && elapsed_total >= budget {
                break;
            }
        }

        let mut out = best.expect("at least one restart ran");
        out.elapsed = elapsed_total;
        out.total_sampling = sampling_total;
        out.iterations = iterations_total;
        out.trace = merged_trace;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mn::MaxNoise;
    use stoch_eval::functions::Rastrigin;
    use stoch_eval::noise::ConstantNoise;
    use stoch_eval::objective::Objective;
    use stoch_eval::sampler::Noisy;

    #[test]
    fn restarts_improve_on_multimodal_surfaces() {
        let rast = Rastrigin::new(2);
        let obj = Noisy::new(rast, ConstantNoise(0.2));
        let term = Termination {
            tolerance: Some(1e-6),
            max_time: Some(2e4),
            max_iterations: Some(2_000),
        };
        // Single local run vs multistart under the same total budget.
        let init = random_uniform(2, -5.0, 5.0, 3);
        let single = MaxNoise::with_k(2.0).run(&obj, init, term, TimeMode::Parallel, 3);
        let multi = RestartedSimplex::new(SimplexMethod::Mn(MaxNoise::with_k(2.0)), -5.0, 5.0).run(
            &obj,
            term,
            TimeMode::Parallel,
            3,
        );
        assert!(
            rast.value(&multi.best_point) <= rast.value(&single.best_point) + 1e-9,
            "multistart {} vs single {}",
            rast.value(&multi.best_point),
            rast.value(&single.best_point)
        );
        assert!(multi.iterations >= single.iterations);
    }

    #[test]
    fn restart_respects_total_budget() {
        let obj = Noisy::new(Rastrigin::new(2), ConstantNoise(1.0));
        let term = Termination {
            tolerance: Some(1e-8),
            max_time: Some(5e3),
            max_iterations: Some(10_000),
        };
        let res = RestartedSimplex::new(SimplexMethod::Mn(MaxNoise::with_k(2.0)), -5.0, 5.0).run(
            &obj,
            term,
            TimeMode::Parallel,
            1,
        );
        // Allow one in-flight round of slack.
        assert!(res.elapsed < 5e3 * 1.6, "elapsed {}", res.elapsed);
    }

    #[test]
    fn merged_trace_is_time_monotone() {
        let obj = Noisy::new(Rastrigin::new(2), ConstantNoise(0.5));
        let term = Termination {
            tolerance: Some(1e-6),
            max_time: Some(1e4),
            max_iterations: Some(2_000),
        };
        let res = RestartedSimplex::new(SimplexMethod::Mn(MaxNoise::with_k(2.0)), -5.0, 5.0).run(
            &obj,
            term,
            TimeMode::Parallel,
            2,
        );
        for w in res.trace.points().windows(2) {
            assert!(w[1].time >= w[0].time - 1e-9);
        }
    }
}
