//! PC — the point-to-point comparison algorithm (Algorithm 3).
//!
//! Every comparison that can move the simplex is made at a chosen confidence
//! level: `g(a) < g(b)` is only believed when `g(a) + kσ_a < g(b) − kσ_b`.
//! When neither a condition nor its complement can be decided, *only the two
//! points involved* are resampled until the decision is possible — in
//! contrast to MN, which waits on every vertex. The seven decision sites
//! (c1…c7) can individually use the error-bar comparison or the plain one;
//! Figures 3.8–3.17 ablate exactly this choice via
//! [`PcConditions`](crate::config::PcConditions).

use crate::algorithm::Method;
use crate::compare::{confident_greater, confident_less, Decision};
use crate::config::{PcParams, SimplexConfig};
use crate::engine::Engine;
use crate::geometry::{contract, expand, reflect};
use crate::session::Driver;
use crate::termination::StopReason;
use crate::trace::StepKind;
use stoch_eval::objective::StochasticObjective;

/// Safety cap on resampling rounds within one decision.
const MAX_RESAMPLE_ROUNDS: u32 = 20_000;

/// Run one PC iteration (Algorithm 3 body). Returns `Some(reason)` if a
/// termination criterion fired mid-iteration.
///
/// Shared with [`crate::pcmn::PcMn`], which prepends the MN gate.
pub(crate) async fn pc_iteration<F: StochasticObjective>(
    eng: &mut Engine<'_, F>,
    params: PcParams,
) -> Option<StopReason> {
    let coeff = eng.config().coefficients;
    let k = params.k;
    let conds = params.conditions;
    // Clone the handles once per iteration (a handful of Arc bumps) so site
    // accounting does not fight the borrow checker across `&mut eng` calls.
    let metrics = eng.metrics().cloned();
    // A site's condition resolved: affirmative for `yes`, negative for the
    // paired site checked in the same loop.
    let decided = |yes: usize, no: usize| {
        if let Some(m) = &metrics {
            m.site(yes).decided_true.inc();
            m.site(no).decided_false.inc();
        }
    };
    // Both sites of a loop stayed undecided for a round costing `dt`.
    let undecided = |a: usize, b: usize, dt: f64| {
        if let Some(m) = &metrics {
            for &s in &[a, b] {
                m.site(s).undecided_resample.inc();
                m.site(s).resample_time.add(dt);
            }
        }
    };

    let ord = eng.ordering();
    let cent = eng.centroid_excluding(ord.max);
    let refl_x = reflect(&cent, eng.point(ord.max), coeff.alpha);
    let refl = eng.open_trial(refl_x);
    eng.extend_round(&[refl]).await;

    // Stage R: decide condition 1 (reflection confidently below smax) or
    // condition 5 (confidently at/above); resample {ref, smax} otherwise.
    enum RBranch {
        Better,
        Worse,
    }
    let mut rounds = 0u32;
    let branch = loop {
        let er = eng.estimate(refl);
        let es = eng.estimate(ord.smax);
        if confident_less(er, es, k, conds.uses_bars(1)) == Decision::Yes {
            decided(1, 5);
            break RBranch::Better; // condition 1
        }
        if confident_less(er, es, k, conds.uses_bars(5)) == Decision::No {
            decided(5, 1);
            break RBranch::Worse; // condition 5
        }
        if let Some(r) = eng.budget_stop() {
            eng.drop_trials();
            return Some(r);
        }
        if rounds >= MAX_RESAMPLE_ROUNDS {
            eng.drop_trials();
            return Some(StopReason::Stalled);
        }
        let t0 = eng.elapsed();
        eng.extend_round(&[refl, ord.smax]).await;
        undecided(1, 5, eng.elapsed() - t0);
        rounds += 1;
    };

    match branch {
        RBranch::Better => {
            // Condition 2: reflection confidently worse than the best vertex
            // — accept it without attempting an expansion.
            let er = eng.estimate(refl);
            let emin = eng.estimate(ord.min);
            if confident_greater(er, emin, k, conds.uses_bars(2)) == Decision::Yes {
                if let Some(m) = &metrics {
                    m.site(2).decided_true.inc();
                }
                eng.replace_vertex(ord.max, refl);
                eng.drop_trials();
                eng.record(StepKind::Reflect);
                return None;
            }
            // Site c2 never loops: an undecided comparison falls through to
            // the expansion attempt, so count it as decided-false.
            if let Some(m) = &metrics {
                m.site(2).decided_false.inc();
            }
            // Expansion: decide condition 3 (expansion confidently below the
            // reflection) or condition 4; resample {exp, ref} otherwise.
            let exp_x = expand(&cent, eng.point(refl), coeff.gamma);
            let exp = eng.open_trial(exp_x);
            eng.extend_round(&[exp]).await;
            let mut rounds = 0u32;
            loop {
                let ee = eng.estimate(exp);
                let er = eng.estimate(refl);
                if confident_less(ee, er, k, conds.uses_bars(3)) == Decision::Yes {
                    decided(3, 4);
                    eng.replace_vertex(ord.max, exp);
                    eng.level_mut().on_expand();
                    eng.drop_trials();
                    eng.record(StepKind::Expand);
                    return None; // condition 3
                }
                if confident_less(ee, er, k, conds.uses_bars(4)) == Decision::No {
                    decided(4, 3);
                    eng.replace_vertex(ord.max, refl);
                    eng.drop_trials();
                    eng.record(StepKind::Reflect);
                    return None; // condition 4
                }
                if let Some(r) = eng.budget_stop() {
                    eng.drop_trials();
                    return Some(r);
                }
                if rounds >= MAX_RESAMPLE_ROUNDS {
                    eng.drop_trials();
                    return Some(StopReason::Stalled);
                }
                let t0 = eng.elapsed();
                eng.extend_round(&[exp, refl]).await;
                undecided(3, 4, eng.elapsed() - t0);
                rounds += 1;
            }
        }
        RBranch::Worse => {
            // Contraction: decide condition 6 (contraction confidently below
            // the worst vertex) or condition 7 (collapse); resample
            // {con, max} otherwise.
            let con_x = contract(&cent, eng.point(ord.max), coeff.beta);
            let con = eng.open_trial(con_x);
            eng.extend_round(&[con]).await;
            let mut rounds = 0u32;
            loop {
                let ec = eng.estimate(con);
                let em = eng.estimate(ord.max);
                if confident_less(ec, em, k, conds.uses_bars(6)) == Decision::Yes {
                    decided(6, 7);
                    eng.replace_vertex(ord.max, con);
                    eng.level_mut().on_contract();
                    eng.drop_trials();
                    eng.record(StepKind::Contract);
                    return None; // condition 6
                }
                if confident_less(ec, em, k, conds.uses_bars(7)) == Decision::No {
                    decided(7, 6);
                    eng.drop_trials();
                    eng.collapse(ord.min).await;
                    eng.record(StepKind::Collapse);
                    return None; // condition 7
                }
                if let Some(r) = eng.budget_stop() {
                    eng.drop_trials();
                    return Some(r);
                }
                if rounds >= MAX_RESAMPLE_ROUNDS {
                    eng.drop_trials();
                    return Some(StopReason::Stalled);
                }
                let t0 = eng.elapsed();
                eng.extend_round(&[con, ord.max]).await;
                undecided(6, 7, eng.elapsed() - t0);
                rounds += 1;
            }
        }
    }
}

/// The point-to-point comparison algorithm (paper Algorithm 3).
#[derive(Debug, Clone, Default)]
pub struct PointComparison {
    /// Coefficients and sampling policy.
    pub cfg: SimplexConfig,
    /// Confidence multiplier and error-bar condition set.
    pub params: PcParams,
}

impl PointComparison {
    /// PC with default parameters (`k = 1`, bars at all seven sites).
    pub fn new() -> Self {
        Self::default()
    }

    /// PC with a specific parameter block.
    pub fn with_params(params: PcParams) -> Self {
        PointComparison {
            cfg: SimplexConfig::default(),
            params,
        }
    }
}

impl Method for PointComparison {
    fn config(&self) -> &SimplexConfig {
        &self.cfg
    }

    fn driver(&self) -> Driver {
        Driver::Pc(self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PcConditions;
    use crate::init::random_uniform;
    use crate::mn::MaxNoise;
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
    fn pc_solves_noise_free_rosenbrock() {
        let obj = Noisy::new(Rosenbrock::new(2), ZeroNoise);
        let init = random_uniform(2, -2.0, 2.0, 17);
        let res = PointComparison::new().run(
            &obj,
            init,
            Termination::tolerance(1e-12),
            TimeMode::Parallel,
            1,
        );
        assert!(Rosenbrock::new(2).value(&res.best_point) < 1e-5);
    }

    #[test]
    fn pc_beats_or_ties_mn_under_noise() {
        // The Fig 3.5b effect, averaged over a few replicates.
        let rosen = Rosenbrock::new(3);
        // Pinned Gaussian: the Fig 3.5b margin is calibrated for Gaussian
        // noise and need not hold under an NSX_NOISE chaos run.
        let obj = Noisy::gaussian(rosen, ConstantNoise(100.0));
        let mut log_ratio_sum = 0.0;
        for s in 0..5 {
            let init = random_uniform(3, -6.0, 3.0, 2000 + s);
            let mn = MaxNoise::with_k(2.0).run(&obj, init.clone(), term(), TimeMode::Parallel, s);
            let pc = PointComparison::new().run(&obj, init, term(), TimeMode::Parallel, s);
            let fm = rosen.value(&mn.best_point).max(1e-12);
            let fp = rosen.value(&pc.best_point).max(1e-12);
            log_ratio_sum += (fp / fm).log10();
        }
        assert!(
            log_ratio_sum < 1.0,
            "PC should be no worse than MN on average, got {log_ratio_sum}"
        );
    }

    #[test]
    fn pc_single_condition_variants_run() {
        let obj = Noisy::new(Rosenbrock::new(3), ConstantNoise(100.0));
        for c in 1..=7 {
            let init = random_uniform(3, -6.0, 3.0, 3000 + c as u64);
            let pc = PointComparison::with_params(PcParams {
                k: 1.0,
                conditions: PcConditions::only(&[c]),
            });
            let res = pc.run(&obj, init, term(), TimeMode::Parallel, c as u64);
            assert!(res.iterations > 0, "variant c{c} made no progress");
        }
    }

    #[test]
    fn pc_with_no_bars_behaves_like_det_structure() {
        // With every condition un-barred the comparisons are plain, so no
        // resampling loops run and sampling stays shallow.
        let obj = Noisy::new(Rosenbrock::new(3), ConstantNoise(100.0));
        let init = random_uniform(3, -6.0, 3.0, 55);
        let none = PointComparison::with_params(PcParams {
            k: 1.0,
            conditions: PcConditions::none(),
        })
        .run(&obj, init.clone(), term(), TimeMode::Parallel, 8);
        let all = PointComparison::new().run(&obj, init, term(), TimeMode::Parallel, 8);
        assert!(none.total_sampling < all.total_sampling);
    }

    #[test]
    fn pc_k2_is_stricter_than_k1() {
        // Larger confidence multiplier demands more sampling per decision.
        let obj = Noisy::new(Rosenbrock::new(3), ConstantNoise(100.0));
        let init = random_uniform(3, -6.0, 3.0, 66);
        let t = Termination {
            tolerance: Some(1e-3),
            max_time: Some(5e4),
            max_iterations: Some(2_000),
        };
        let k1 = PointComparison::with_params(PcParams {
            k: 1.0,
            conditions: PcConditions::all(),
        })
        .run(&obj, init.clone(), t, TimeMode::Parallel, 9);
        let k2 = PointComparison::with_params(PcParams {
            k: 2.0,
            conditions: PcConditions::all(),
        })
        .run(&obj, init, t, TimeMode::Parallel, 9);
        assert!(
            k2.iterations <= k1.iterations,
            "k=2 took more steps ({}) than k=1 ({})",
            k2.iterations,
            k1.iterations
        );
    }
}
