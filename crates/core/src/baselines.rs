//! Extension baselines beyond the paper's DET/Anderson comparisons.
//!
//! The calibration notes that the paper is light on optimization baselines;
//! these three classical stochastic optimizers run on the *same* sampling
//! substrate, so the benchmark harness can compare them head-to-head with
//! the simplex family under identical noise:
//!
//! * [`Spsa`] — Spall's simultaneous-perturbation stochastic approximation
//!   (the paper cites Spall \[25\]\[26\] as the stochastic-approximation line).
//! * [`SimulatedAnnealing`] — Metropolis search on noisy estimates (§1.3.3.4).
//! * [`RandomSearch`] — uniform random sampling of the box, the null model.

use crate::config::BackendChoice;
use crate::result::RunResult;
use crate::termination::Termination;
use crate::trace::{StepKind, Trace, TracePoint};
use rand::rngs::StdRng;
use rand::Rng;
use stoch_eval::backend::{eval_round, SamplingBackend};
use stoch_eval::clock::{TimeMode, VirtualClock};
use stoch_eval::objective::StochasticObjective;
use stoch_eval::rng::{rng_from_seed, SeedSequence};
use stoch_eval::sampler::standard_normal;

/// Sample a point for a fixed duration (one single-stream backend round)
/// and return the estimate value.
fn quick_eval<F: StochasticObjective>(
    backend: &dyn SamplingBackend<F::Stream>,
    objective: &F,
    x: &[f64],
    dt: f64,
    seeds: &mut SeedSequence,
    clock: &mut VirtualClock,
    total: &mut f64,
) -> f64 {
    eval_round(backend, objective, &[x.to_vec()], dt, seeds, clock, total)[0]
}

/// Simultaneous-perturbation stochastic approximation (Spall 1992).
///
/// Gain sequences follow the standard guidelines:
/// `a_k = a / (k + 1 + A)^α`, `c_k = c / (k + 1)^γ` with `α = 0.602`,
/// `γ = 0.101`.
#[derive(Debug, Clone)]
pub struct Spsa {
    /// Step-size scale `a`.
    pub a: f64,
    /// Stability offset `A`.
    pub big_a: f64,
    /// Perturbation scale `c`.
    pub c: f64,
    /// Step-size decay exponent `α`.
    pub alpha: f64,
    /// Perturbation decay exponent `γ`.
    pub gamma: f64,
    /// Sampling time per gradient-probe evaluation.
    pub eval_dt: f64,
    /// Per-coordinate cap on one update step (gradient clipping); keeps
    /// untuned gains from diverging on steep valleys like Rosenbrock.
    pub max_step: f64,
    /// Which backend executes the paired probe evaluations.
    pub backend: BackendChoice,
}

impl Default for Spsa {
    fn default() -> Self {
        Spsa {
            a: 0.5,
            big_a: 10.0,
            c: 0.5,
            alpha: 0.602,
            gamma: 0.101,
            eval_dt: 1.0,
            max_step: 0.5,
            backend: BackendChoice::default(),
        }
    }
}

impl Spsa {
    /// Run SPSA from `x0`.
    pub fn run<F: StochasticObjective>(
        &self,
        objective: &F,
        x0: Vec<f64>,
        term: Termination,
        mode: TimeMode,
        seed: u64,
    ) -> RunResult {
        let d = objective.dim();
        assert_eq!(x0.len(), d);
        let mut seeds = SeedSequence::new(seed);
        let mut rng: StdRng = rng_from_seed(seeds.next_seed());
        let mut clock = VirtualClock::new(mode);
        let backend = self.backend.build::<F::Stream>();
        let mut total = 0.0;
        let mut trace = Trace::new();
        let mut x = x0;
        let mut k: u64 = 0;

        let stop = loop {
            if let Some(r) = term.budget_exceeded(clock.elapsed(), k) {
                break r;
            }
            let ak = self.a / ((k as f64 + 1.0 + self.big_a).powf(self.alpha));
            let ck = self.c / ((k as f64 + 1.0).powf(self.gamma));
            // Rademacher perturbation direction.
            let delta: Vec<f64> = (0..d)
                .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
                .collect();
            let xp: Vec<f64> = x
                .iter()
                .zip(&delta)
                .map(|(&xi, &di)| xi + ck * di)
                .collect();
            let xm: Vec<f64> = x
                .iter()
                .zip(&delta)
                .map(|(&xi, &di)| xi - ck * di)
                .collect();
            // The two probes run concurrently: one backend round.
            let probes = eval_round(
                backend.as_ref(),
                objective,
                &[xp, xm],
                self.eval_dt,
                &mut seeds,
                &mut clock,
                &mut total,
            );
            let (gp, gm) = (probes[0], probes[1]);
            let diff = (gp - gm) / (2.0 * ck);
            for (xi, &di) in x.iter_mut().zip(&delta) {
                let step = (ak * diff / di).clamp(-self.max_step, self.max_step);
                *xi -= step;
            }
            k += 1;
            let best_true = objective.true_value(&x);
            trace.push(TracePoint {
                time: clock.elapsed(),
                iteration: k,
                best_observed: best_true.unwrap_or(0.5 * (gp + gm)),
                best_true,
                diameter: 2.0 * ck,
                step: StepKind::Reflect,
            });
        };

        let best_observed = quick_eval(
            backend.as_ref(),
            objective,
            &x,
            self.eval_dt,
            &mut seeds,
            &mut clock,
            &mut total,
        );
        RunResult {
            best_point: x,
            best_observed,
            iterations: k,
            elapsed: clock.elapsed(),
            total_sampling: total,
            stop,
            trace,
            metrics: None,
            notes: crate::result::notes_from_backend(backend.as_ref()),
        }
    }
}

/// Metropolis simulated annealing over noisy estimates (§1.3.3.4).
#[derive(Debug, Clone)]
pub struct SimulatedAnnealing {
    /// Initial temperature.
    pub t0: f64,
    /// Geometric cooling factor per step (`< 1`).
    pub cooling: f64,
    /// Gaussian proposal scale.
    pub step: f64,
    /// Sampling time per evaluation.
    pub eval_dt: f64,
    /// Which backend executes the candidate evaluations.
    pub backend: BackendChoice,
}

impl Default for SimulatedAnnealing {
    fn default() -> Self {
        SimulatedAnnealing {
            t0: 100.0,
            cooling: 0.995,
            step: 0.5,
            eval_dt: 1.0,
            backend: BackendChoice::default(),
        }
    }
}

impl SimulatedAnnealing {
    /// Run annealing from `x0`.
    pub fn run<F: StochasticObjective>(
        &self,
        objective: &F,
        x0: Vec<f64>,
        term: Termination,
        mode: TimeMode,
        seed: u64,
    ) -> RunResult {
        let mut seeds = SeedSequence::new(seed);
        let mut rng: StdRng = rng_from_seed(seeds.next_seed());
        let mut clock = VirtualClock::new(mode);
        let backend = self.backend.build::<F::Stream>();
        let mut total = 0.0;
        let mut trace = Trace::new();

        let mut x = x0;
        let mut gx = quick_eval(
            backend.as_ref(),
            objective,
            &x,
            self.eval_dt,
            &mut seeds,
            &mut clock,
            &mut total,
        );
        let (mut best_x, mut best_g) = (x.clone(), gx);
        let mut temp = self.t0;
        let mut k: u64 = 0;

        let stop = loop {
            if let Some(r) = term.budget_exceeded(clock.elapsed(), k) {
                break r;
            }
            let cand: Vec<f64> = x
                .iter()
                .map(|&xi| xi + self.step * standard_normal(&mut rng))
                .collect();
            let gc = quick_eval(
                backend.as_ref(),
                objective,
                &cand,
                self.eval_dt,
                &mut seeds,
                &mut clock,
                &mut total,
            );
            let accept = gc < gx || rng.gen::<f64>() < ((gx - gc) / temp.max(1e-300)).exp();
            if accept {
                x = cand;
                gx = gc;
                if gx < best_g {
                    best_g = gx;
                    best_x = x.clone();
                }
            }
            temp *= self.cooling;
            k += 1;
            trace.push(TracePoint {
                time: clock.elapsed(),
                iteration: k,
                best_observed: best_g,
                best_true: objective.true_value(&best_x),
                diameter: temp,
                step: if accept {
                    StepKind::Reflect
                } else {
                    StepKind::Contract
                },
            });
        };

        RunResult {
            best_point: best_x,
            best_observed: best_g,
            iterations: k,
            elapsed: clock.elapsed(),
            total_sampling: total,
            stop,
            trace,
            metrics: None,
            notes: crate::result::notes_from_backend(backend.as_ref()),
        }
    }
}

/// Uniform random search over a box — the null model every informed method
/// must beat.
#[derive(Debug, Clone)]
pub struct RandomSearch {
    /// Lower bound of each coordinate.
    pub lo: f64,
    /// Upper bound of each coordinate.
    pub hi: f64,
    /// Sampling time per evaluation.
    pub eval_dt: f64,
    /// Which backend executes the candidate evaluations.
    pub backend: BackendChoice,
}

impl RandomSearch {
    /// Search within `[lo, hi)^d`.
    pub fn new(lo: f64, hi: f64) -> Self {
        RandomSearch {
            lo,
            hi,
            eval_dt: 1.0,
            backend: BackendChoice::default(),
        }
    }

    /// Run the search.
    pub fn run<F: StochasticObjective>(
        &self,
        objective: &F,
        term: Termination,
        mode: TimeMode,
        seed: u64,
    ) -> RunResult {
        let d = objective.dim();
        let mut seeds = SeedSequence::new(seed);
        let mut rng: StdRng = rng_from_seed(seeds.next_seed());
        let mut clock = VirtualClock::new(mode);
        let backend = self.backend.build::<F::Stream>();
        let mut total = 0.0;
        let mut trace = Trace::new();
        let mut best_x: Vec<f64> = (0..d).map(|_| rng.gen_range(self.lo..self.hi)).collect();
        let mut best_g = quick_eval(
            backend.as_ref(),
            objective,
            &best_x,
            self.eval_dt,
            &mut seeds,
            &mut clock,
            &mut total,
        );
        let mut k: u64 = 0;

        let stop = loop {
            if let Some(r) = term.budget_exceeded(clock.elapsed(), k) {
                break r;
            }
            let cand: Vec<f64> = (0..d).map(|_| rng.gen_range(self.lo..self.hi)).collect();
            let gc = quick_eval(
                backend.as_ref(),
                objective,
                &cand,
                self.eval_dt,
                &mut seeds,
                &mut clock,
                &mut total,
            );
            if gc < best_g {
                best_g = gc;
                best_x = cand;
            }
            k += 1;
            trace.push(TracePoint {
                time: clock.elapsed(),
                iteration: k,
                best_observed: best_g,
                best_true: objective.true_value(&best_x),
                diameter: self.hi - self.lo,
                step: StepKind::Reflect,
            });
        };

        RunResult {
            best_point: best_x,
            best_observed: best_g,
            iterations: k,
            elapsed: clock.elapsed(),
            total_sampling: total,
            stop,
            trace,
            metrics: None,
            notes: crate::result::notes_from_backend(backend.as_ref()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stoch_eval::functions::{Rosenbrock, Sphere};
    use stoch_eval::noise::{ConstantNoise, ZeroNoise};
    use stoch_eval::objective::Objective;
    use stoch_eval::sampler::Noisy;

    fn iters(n: u64) -> Termination {
        Termination {
            tolerance: None,
            max_time: None,
            max_iterations: Some(n),
        }
    }

    #[test]
    fn spsa_descends_on_noisy_sphere() {
        let sphere = Sphere::new(4);
        let obj = Noisy::new(sphere, ConstantNoise(0.5));
        let x0 = vec![3.0; 4];
        let res = Spsa::default().run(&obj, x0.clone(), iters(2_000), TimeMode::Parallel, 1);
        assert!(
            sphere.value(&res.best_point) < sphere.value(&x0) / 10.0,
            "SPSA final {}",
            sphere.value(&res.best_point)
        );
    }

    #[test]
    fn annealing_descends_on_rosenbrock() {
        let rosen = Rosenbrock::new(2);
        let obj = Noisy::new(rosen, ZeroNoise);
        let x0 = vec![-1.5, 2.0];
        let res = SimulatedAnnealing::default().run(
            &obj,
            x0.clone(),
            iters(4_000),
            TimeMode::Parallel,
            2,
        );
        assert!(rosen.value(&res.best_point) < rosen.value(&x0));
    }

    #[test]
    fn random_search_improves_on_first_draw() {
        let sphere = Sphere::new(3);
        let obj = Noisy::new(sphere, ConstantNoise(0.1));
        let res = RandomSearch::new(-5.0, 5.0).run(&obj, iters(500), TimeMode::Parallel, 3);
        assert!(sphere.value(&res.best_point) < 25.0);
        assert_eq!(res.iterations, 500);
    }

    #[test]
    fn baselines_account_time() {
        let obj = Noisy::new(Sphere::new(2), ConstantNoise(1.0));
        let res = RandomSearch::new(-1.0, 1.0).run(&obj, iters(10), TimeMode::Serial, 4);
        // 11 evaluations (initial + 10) at dt = 1 in serial mode.
        assert_eq!(res.elapsed, 11.0);
        assert_eq!(res.total_sampling, 11.0);
    }
}
