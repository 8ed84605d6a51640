//! Particle swarm optimization (§1.3.3.3) on the noisy-sampling substrate,
//! and the PSO + stochastic-simplex hybrid the paper proposes as future
//! work (§5.2):
//!
//! > "particle swarm optimization suffers from the disadvantage of slow
//! > convergence in the refined search stages ... while the maxnoise,
//! > point-to-point and simplex in general lack the ability to converge to
//! > a global minimum but converge quickly to a local minimum. An ability
//! > to use PSO with maxnoise and point-to-point may prove to be another
//! > step forward."
//!
//! [`Pso`] runs a standard global-best swarm over noisy estimates;
//! [`PsoSimplex`] runs a PSO exploration phase, builds a simplex from the
//! best particles, and refines it with any [`SimplexMethod`].

use crate::algorithm::{Method, SimplexMethod};
use crate::config::BackendChoice;
use crate::result::RunResult;
use crate::termination::{StopReason, Termination};
use crate::trace::{StepKind, Trace, TracePoint};
use rand::rngs::StdRng;
use rand::Rng;
use stoch_eval::backend::eval_round;
use stoch_eval::clock::{TimeMode, VirtualClock};
use stoch_eval::objective::StochasticObjective;
use stoch_eval::rng::{rng_from_seed, SeedSequence};

/// Standard global-best particle swarm over noisy estimates.
#[derive(Debug, Clone)]
pub struct Pso {
    /// Number of particles.
    pub swarm: usize,
    /// Inertia weight `w`.
    pub inertia: f64,
    /// Cognitive acceleration `c1` (pull towards the particle's own best).
    pub cognitive: f64,
    /// Social acceleration `c2` (pull towards the global best).
    pub social: f64,
    /// Sampling time per evaluation.
    pub eval_dt: f64,
    /// Search box lower bound per coordinate.
    pub lo: f64,
    /// Search box upper bound per coordinate.
    pub hi: f64,
    /// Which backend executes each swarm evaluation round.
    pub backend: BackendChoice,
}

impl Default for Pso {
    fn default() -> Self {
        Pso {
            swarm: 20,
            inertia: 0.72,
            cognitive: 1.49,
            social: 1.49,
            eval_dt: 1.0,
            lo: -5.0,
            hi: 5.0,
            backend: BackendChoice::default(),
        }
    }
}

impl Pso {
    /// PSO over the box `[lo, hi)^d`.
    pub fn in_box(lo: f64, hi: f64) -> Self {
        Pso {
            lo,
            hi,
            ..Pso::default()
        }
    }

    /// Run the swarm. One iteration = one concurrent evaluation round of
    /// every particle (the particles are independent, so in parallel mode
    /// the round costs one `eval_dt`).
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
        let mut total = 0.0;
        let mut trace = Trace::new();

        let mut pos: Vec<Vec<f64>> = (0..self.swarm)
            .map(|_| (0..d).map(|_| rng.gen_range(self.lo..self.hi)).collect())
            .collect();
        let vmax = (self.hi - self.lo) * 0.2;
        let mut vel: Vec<Vec<f64>> = (0..self.swarm)
            .map(|_| (0..d).map(|_| rng.gen_range(-vmax..vmax)).collect())
            .collect();

        // Concurrent evaluation of the whole swarm: one backend round.
        let backend = self.backend.build::<F::Stream>();
        let eval_all = |pos: &[Vec<f64>],
                        seeds: &mut SeedSequence,
                        clock: &mut VirtualClock,
                        total: &mut f64|
         -> Vec<f64> {
            eval_round(
                backend.as_ref(),
                objective,
                pos,
                self.eval_dt,
                seeds,
                clock,
                total,
            )
        };

        let mut vals = eval_all(&pos, &mut seeds, &mut clock, &mut total);
        let mut pbest = pos.clone();
        let mut pbest_val = vals.clone();
        let mut gbest_idx = argmin(&vals);
        let mut gbest = pos[gbest_idx].clone();
        let mut gbest_val = vals[gbest_idx];
        let mut k: u64 = 0;

        let stop = loop {
            if let Some(r) = term.budget_exceeded(clock.elapsed(), k) {
                break r;
            }
            if term.spread_met(&pbest_val) {
                break StopReason::Tolerance;
            }
            for i in 0..self.swarm {
                for j in 0..d {
                    let r1: f64 = rng.gen();
                    let r2: f64 = rng.gen();
                    vel[i][j] = self.inertia * vel[i][j]
                        + self.cognitive * r1 * (pbest[i][j] - pos[i][j])
                        + self.social * r2 * (gbest[j] - pos[i][j]);
                    vel[i][j] = vel[i][j].clamp(-vmax, vmax);
                    pos[i][j] += vel[i][j];
                }
            }
            vals = eval_all(&pos, &mut seeds, &mut clock, &mut total);
            for i in 0..self.swarm {
                if vals[i] < pbest_val[i] {
                    pbest_val[i] = vals[i];
                    pbest[i] = pos[i].clone();
                }
            }
            gbest_idx = argmin(&pbest_val);
            if pbest_val[gbest_idx] < gbest_val {
                gbest_val = pbest_val[gbest_idx];
                gbest = pbest[gbest_idx].clone();
            }
            k += 1;
            trace.push(TracePoint {
                time: clock.elapsed(),
                iteration: k,
                best_observed: gbest_val,
                best_true: objective.true_value(&gbest),
                diameter: swarm_diameter(&pos),
                step: StepKind::Reflect,
            });
        };

        RunResult {
            best_point: gbest,
            best_observed: gbest_val,
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

fn argmin(vals: &[f64]) -> usize {
    vals.iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| i)
        .unwrap_or(0)
}

fn swarm_diameter(pos: &[Vec<f64>]) -> f64 {
    let mut d = 0.0f64;
    for i in 0..pos.len() {
        for j in i + 1..pos.len() {
            d = d.max(crate::geometry::distance(&pos[i], &pos[j]));
        }
    }
    d
}

/// The hybrid the paper recommends (§5.2): a PSO exploration phase followed
/// by a stochastic-simplex refinement phase started from the best swarm
/// positions.
#[derive(Debug, Clone)]
pub struct PsoSimplex {
    /// The exploration swarm.
    pub pso: Pso,
    /// Fraction of the time budget given to exploration (rest refines).
    pub explore_fraction: f64,
    /// The local refiner (MN, PC, PC+MN, ...).
    pub refiner: SimplexMethod,
}

impl PsoSimplex {
    /// Hybrid with the given refiner, splitting the budget 30/70.
    pub fn new(pso: Pso, refiner: SimplexMethod) -> Self {
        PsoSimplex {
            pso,
            explore_fraction: 0.3,
            refiner,
        }
    }

    /// Run exploration then refinement under a shared budget.
    pub fn run<F: StochasticObjective>(
        &self,
        objective: &F,
        term: Termination,
        mode: TimeMode,
        seed: u64,
    ) -> RunResult {
        let budget = term.max_time.unwrap_or(1e5);
        let explore_term = Termination {
            tolerance: None,
            max_time: Some(budget * self.explore_fraction),
            max_iterations: term.max_iterations,
        };
        // Phase 1: exploration. Re-run PSO internals to extract the ranked
        // personal bests (the public result only carries gbest).
        let pso_res = self.pso.run(objective, explore_term, mode, seed);

        // Seed the simplex: gbest plus d axis-perturbed copies scaled by the
        // final swarm spread (a compact simplex around the promising basin).
        let scale = pso_res
            .trace
            .points()
            .last()
            .map(|p| (p.diameter * 0.25).max(1e-3))
            .unwrap_or(0.5);
        let init = crate::init::axis_aligned(&pso_res.best_point, scale);

        let refine_term = Termination {
            tolerance: term.tolerance,
            max_time: Some(budget * (1.0 - self.explore_fraction)),
            max_iterations: term.max_iterations,
        };
        let mut refined =
            self.refiner
                .run(objective, init, refine_term, mode, seed.wrapping_add(1));

        // Merge accounting so the result reflects the whole hybrid run; keep
        // the better of the two phase outcomes.
        refined.elapsed += pso_res.elapsed;
        refined.total_sampling += pso_res.total_sampling;
        refined.iterations += pso_res.iterations;
        if pso_res.best_observed < refined.best_observed {
            refined.best_point = pso_res.best_point;
            refined.best_observed = pso_res.best_observed;
        }
        refined.trace = {
            let mut t = pso_res.trace;
            for p in refined.trace.points() {
                t.push(TracePoint {
                    time: p.time + pso_res.elapsed.min(budget * self.explore_fraction),
                    ..*p
                });
            }
            t
        };
        refined
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mn::MaxNoise;
    use stoch_eval::functions::{Rastrigin, Rosenbrock, Sphere};
    use stoch_eval::noise::ConstantNoise;
    use stoch_eval::objective::Objective;
    use stoch_eval::sampler::Noisy;

    fn budget(t: f64) -> Termination {
        Termination {
            tolerance: None,
            max_time: Some(t),
            max_iterations: Some(5_000),
        }
    }

    #[test]
    fn pso_descends_on_noisy_sphere() {
        let sphere = Sphere::new(4);
        // Pinned Gaussian: the descent threshold is calibrated for Gaussian
        // noise and need not hold under an NSX_NOISE chaos run.
        let obj = Noisy::gaussian(sphere, ConstantNoise(1.0));
        let res = Pso::in_box(-5.0, 5.0).run(&obj, budget(3e3), TimeMode::Parallel, 1);
        assert!(
            sphere.value(&res.best_point) < 1.0,
            "PSO final {}",
            sphere.value(&res.best_point)
        );
        assert!(res.iterations > 10);
    }

    #[test]
    fn pso_escapes_rastrigin_local_minima_better_than_pure_simplex() {
        // Multimodal stress: PSO's global phase should reach a deeper basin
        // than a single local simplex started in the same box, on average.
        let rast = Rastrigin::new(2);
        let obj = Noisy::new(rast, ConstantNoise(0.5));
        let mut pso_sum = 0.0;
        let mut nm_sum = 0.0;
        for s in 0..4u64 {
            let pso = Pso::in_box(-5.0, 5.0).run(&obj, budget(4e3), TimeMode::Parallel, s);
            let init = crate::init::random_uniform(2, -5.0, 5.0, 77 + s);
            let nm = MaxNoise::with_k(2.0).run(&obj, init, budget(4e3), TimeMode::Parallel, s);
            pso_sum += rast.value(&pso.best_point);
            nm_sum += rast.value(&nm.best_point);
        }
        assert!(
            pso_sum <= nm_sum + 4.0,
            "PSO {pso_sum} should be competitive with local simplex {nm_sum}"
        );
    }

    #[test]
    fn hybrid_refines_beyond_pso_alone() {
        // On a unimodal function the simplex refinement phase should reach
        // values at least as good as exploration alone under the same
        // budget, on (geometric) average over seeds.
        let rosen = Rosenbrock::new(2);
        let obj = Noisy::new(rosen, ConstantNoise(0.5));
        let t = budget(6e3);
        let mut log_sum = 0.0;
        for s in 0..4u64 {
            let pso_only = Pso::in_box(-5.0, 5.0).run(&obj, t, TimeMode::Parallel, s);
            let hybrid = PsoSimplex::new(
                Pso::in_box(-5.0, 5.0),
                SimplexMethod::Mn(MaxNoise::with_k(2.0)),
            )
            .run(&obj, t, TimeMode::Parallel, s);
            let fh = rosen.value(&hybrid.best_point).max(1e-12);
            let fp = rosen.value(&pso_only.best_point).max(1e-12);
            log_sum += (fh / fp).log10();
        }
        assert!(
            log_sum < 1.0,
            "hybrid should not lose on average: {log_sum}"
        );
    }

    #[test]
    fn hybrid_accounts_both_phases() {
        let obj = Noisy::new(Sphere::new(2), ConstantNoise(1.0));
        let hybrid = PsoSimplex::new(
            Pso::in_box(-3.0, 3.0),
            SimplexMethod::Mn(MaxNoise::with_k(2.0)),
        );
        let res = hybrid.run(&obj, budget(4e3), TimeMode::Parallel, 5);
        // Elapsed covers exploration + refinement but respects the budget
        // within a round's slack.
        assert!(res.elapsed > 4e3 * 0.3);
        assert!(res.elapsed < 4e3 * 1.5);
        assert!(res.iterations > 0);
    }
}
