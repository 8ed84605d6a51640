//! The Anderson et al. (2000) baseline.
//!
//! Two forms are provided:
//!
//! * [`AndersonNm`] — the Anderson *convergence criterion* (Eq. 2.4)
//!   embedded in the Nelder–Mead loop. This is what the paper evaluates in
//!   Table 3.2 / Fig 3.4: sampling at every vertex continues until
//!   `σ_i²(t_i) < k1·2^{−l(1+k2)} ∀i`, where `l` is the simplex contraction
//!   level, then the classic comparisons run. The paper notes: "here we
//!   evaluate their convergence criterion, but do not adopt the other
//!   features of their method."
//! * [`AndersonSearch`] — a structure-based direct search in the spirit of
//!   the full Anderson–Ferris method (Eqs. 2.5–2.8): the whole `m`-point
//!   structure is reflected/expanded/contracted around its best point. This
//!   is an extension (the paper describes but does not benchmark it); the
//!   acceptance rule is a simplified best-point comparison, documented here
//!   rather than claiming fidelity to the original.

use crate::algorithm::Method;
use crate::classic::MAX_WAIT_ROUNDS;
use crate::config::{AndersonParams, SimplexConfig};
use crate::engine::Engine;
use crate::result::RunResult;
use crate::session::Driver;
use crate::termination::{StopReason, Termination};
use crate::trace::{StepKind, Trace, TracePoint};
use stoch_eval::clock::{TimeMode, VirtualClock};
use stoch_eval::objective::{SampleStream, StochasticObjective};
use stoch_eval::rng::SeedSequence;

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

    /// The Eq. 2.4 variance ceiling at contraction level `l`.
    fn threshold(params: AndersonParams, l: i64) -> f64 {
        params.k1 * 2f64.powf(-(l as f64) * (1.0 + params.k2))
    }

    /// The Eq. 2.4 wait loop (shared with [`crate::session::RunSession`]):
    /// extend every vertex until the noisiest one is below the level-scaled
    /// ceiling. Trials then receive one sampling round before comparison,
    /// exactly as in MN (Algorithm 2): both criteria gate only the vertex
    /// noise, which keeps the Table 3.2 comparison fair. The loop is
    /// recorded under the MN gate metrics, since it plays the same role.
    pub(crate) fn wait<F: StochasticObjective>(
        params: AndersonParams,
        eng: &mut Engine<F>,
    ) -> Option<StopReason> {
        let metrics = eng.metrics().cloned();
        let mut rounds = 0u32;
        loop {
            let ceiling = Self::threshold(params, eng.level().0);
            let worst = eng
                .vertex_estimates()
                .iter()
                .map(|e| e.std_err * e.std_err)
                .fold(0.0f64, f64::max);
            let passed = worst < ceiling;
            if let Some(m) = &metrics {
                m.mn_gate_checks.inc();
                if !passed {
                    m.mn_gate_failures.inc();
                }
            }
            if passed {
                return None;
            }
            if let Some(r) = eng.should_stop() {
                return Some(r);
            }
            if rounds >= MAX_WAIT_ROUNDS {
                return Some(StopReason::Stalled);
            }
            let ids: Vec<usize> = (0..eng.n_vertices()).collect();
            let t0 = eng.elapsed();
            eng.extend_round(&ids);
            if let Some(m) = &metrics {
                m.mn_extension_rounds.inc();
                m.mn_equalize_time.add(eng.elapsed() - t0);
            }
            rounds += 1;
        }
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

/// Full structure-based Anderson direct search (extension; see module docs).
#[derive(Debug, Clone, Default)]
pub struct AndersonSearch {
    /// Coefficients and sampling policy (only the sampling policy is used;
    /// structure moves use the fixed factors of Eqs. 2.6–2.8).
    pub cfg: SimplexConfig,
    /// Criterion constants.
    pub params: AndersonParams,
}

impl AndersonSearch {
    /// Run the structure search from an initial `m`-point structure.
    pub fn run<F: StochasticObjective>(
        &self,
        objective: &F,
        init: Vec<Vec<f64>>,
        term: Termination,
        mode: TimeMode,
        seed: u64,
    ) -> RunResult {
        assert!(init.len() >= 2, "structure needs at least 2 points");
        let mut seeds = SeedSequence::new(seed);
        let mut clock = VirtualClock::new(mode);
        let backend = self.cfg.build_backend::<F::Stream>();
        let policy = self.cfg.sampling;
        let mut level: i64 = 0;
        let mut trace = Trace::new();
        let mut total_sampling = 0.0;
        let mut iterations: u64 = 0;

        let mut points = init;
        let mut streams: Vec<F::Stream> = points
            .iter()
            .map(|x| objective.open(x, seeds.next_seed()))
            .collect();

        // Sample the structure until every point meets the Eq. 2.4 ceiling.
        let sample_to_criterion = |streams: &mut Vec<F::Stream>,
                                   clock: &mut VirtualClock,
                                   total: &mut f64,
                                   level: i64,
                                   elapsed_cap: Option<f64>|
         -> bool {
            let ceiling = AndersonNm::threshold(
                AndersonParams {
                    k1: self.params.k1,
                    k2: self.params.k2,
                },
                level,
            );
            let mut rounds = 0u32;
            loop {
                let worst = streams
                    .iter()
                    .map(|s| {
                        let e = s.estimate();
                        e.std_err * e.std_err
                    })
                    .fold(0.0f64, f64::max);
                if worst < ceiling {
                    return true;
                }
                if let Some(cap) = elapsed_cap {
                    if clock.elapsed() >= cap {
                        return false;
                    }
                }
                if rounds >= MAX_WAIT_ROUNDS {
                    return false;
                }
                let dts: Vec<f64> = streams
                    .iter()
                    .map(|s| policy.next_dt(s.estimate().time))
                    .collect();
                stoch_eval::backend::extend_all_round(
                    backend.as_ref(),
                    streams,
                    &dts,
                    clock,
                    total,
                );
                rounds += 1;
            }
        };

        let stop = loop {
            if let Some(r) = term.budget_exceeded(clock.elapsed(), iterations) {
                break r;
            }
            let values: Vec<f64> = streams.iter().map(|s| s.estimate().value).collect();
            if term.spread_met(&values) {
                break StopReason::Tolerance;
            }
            if !sample_to_criterion(
                &mut streams,
                &mut clock,
                &mut total_sampling,
                level,
                term.max_time,
            ) {
                break StopReason::Stalled;
            }

            let values: Vec<f64> = streams.iter().map(|s| s.estimate().value).collect();
            let best = values
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            let best_x = points[best].clone();
            let best_v = values[best];

            // REFLECT(S, x*) = { 2x* − x_i } (Eq. 2.6).
            let refl: Vec<Vec<f64>> = points
                .iter()
                .map(|p| best_x.iter().zip(p).map(|(&b, &x)| 2.0 * b - x).collect())
                .collect();
            let mut refl_streams: Vec<F::Stream> = refl
                .iter()
                .map(|x| objective.open(x, seeds.next_seed()))
                .collect();
            if !sample_to_criterion(
                &mut refl_streams,
                &mut clock,
                &mut total_sampling,
                level,
                term.max_time,
            ) {
                break StopReason::Stalled;
            }
            let refl_best = refl_streams
                .iter()
                .map(|s| s.estimate().value)
                .fold(f64::INFINITY, f64::min);

            let step = if refl_best < best_v {
                // Accept the reflection; then probe EXPAND(S, x*) = {2x_i − x*}.
                let exp: Vec<Vec<f64>> = points
                    .iter()
                    .map(|p| p.iter().zip(&best_x).map(|(&x, &b)| 2.0 * x - b).collect())
                    .collect();
                let mut exp_streams: Vec<F::Stream> = exp
                    .iter()
                    .map(|x| objective.open(x, seeds.next_seed()))
                    .collect();
                let exp_ok = sample_to_criterion(
                    &mut exp_streams,
                    &mut clock,
                    &mut total_sampling,
                    level,
                    term.max_time,
                );
                let exp_best = exp_streams
                    .iter()
                    .map(|s| s.estimate().value)
                    .fold(f64::INFINITY, f64::min);
                if exp_ok && exp_best < refl_best {
                    points = exp;
                    streams = exp_streams;
                    level -= 1;
                    StepKind::Expand
                } else {
                    points = refl;
                    streams = refl_streams;
                    StepKind::Reflect
                }
            } else {
                // CONTRACT(S, x*) = { (x* + x_i)/2 } (Eq. 2.8).
                points = points
                    .iter()
                    .map(|p| {
                        p.iter()
                            .zip(&best_x)
                            .map(|(&x, &b)| 0.5 * (x + b))
                            .collect()
                    })
                    .collect();
                streams = points
                    .iter()
                    .map(|x| objective.open(x, seeds.next_seed()))
                    .collect();
                level += 1;
                StepKind::Contract
            };

            iterations += 1;
            let values: Vec<f64> = streams.iter().map(|s| s.estimate().value).collect();
            let best_now = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let best_idx = values.iter().position(|&v| v == best_now).unwrap_or(0);
            let mut diam = 0.0f64;
            for i in 0..points.len() {
                for j in i + 1..points.len() {
                    diam = diam.max(crate::geometry::distance(&points[i], &points[j]));
                }
            }
            trace.push(TracePoint {
                time: clock.elapsed(),
                iteration: iterations,
                best_observed: best_now,
                best_true: objective.true_value(&points[best_idx]),
                diameter: diam,
                step,
            });
        };

        let values: Vec<f64> = streams.iter().map(|s| s.estimate().value).collect();
        let best = values
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap_or(0);
        RunResult {
            best_point: points[best].clone(),
            best_observed: values[best],
            iterations,
            elapsed: clock.elapsed(),
            total_sampling,
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
    use crate::init::random_uniform;
    use stoch_eval::functions::{Rosenbrock, Sphere};
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

    #[test]
    fn structure_search_descends_on_sphere() {
        let sphere = Sphere::new(2);
        let obj = Noisy::new(sphere, ConstantNoise(0.5));
        let init = random_uniform(2, 2.0, 4.0, 88);
        let res = AndersonSearch {
            cfg: SimplexConfig::default(),
            params: AndersonParams { k1: 16.0, k2: 0.0 },
        }
        .run(&obj, init.clone(), term(), TimeMode::Parallel, 3);
        let start_best = init
            .iter()
            .map(|p| sphere.value(p))
            .fold(f64::INFINITY, f64::min);
        assert!(
            sphere.value(&res.best_point) < start_best,
            "structure search failed to descend"
        );
        assert!(res.iterations > 0);
    }
}
