//! Edge-case integration tests: degenerate dimensions, pathological
//! surfaces, alternative noise models, and the extension algorithms.

use noisy_simplex::prelude::*;
use stoch_eval::functions::{McKinnon, Sphere};
use stoch_eval::functions_ext::{Ackley, Griewank, IllConditionedQuadratic, Levy, Zakharov};
use stoch_eval::noise::{ConstantNoise, RelativeNoise, ZeroNoise};
use stoch_eval::objective::Objective;
use stoch_eval::sampler::Noisy;

#[test]
fn one_dimensional_optimization_works() {
    // d = 1: the simplex is a pair of points; smax == min. Use an
    // asymmetric optimum — a symmetric one (e.g. x² from ±a) produces exact
    // value ties that legitimately trip the Eq. 2.9 spread criterion.
    use stoch_eval::functions::BoxWilsonQuadratic;
    let q = BoxWilsonQuadratic::new(vec![1.0], vec![0.37]);
    let obj = Noisy::new(BoxWilsonQuadratic::new(vec![1.0], vec![0.37]), ZeroNoise);
    for m in [
        SimplexMethod::Det(Det::new()),
        SimplexMethod::Mn(MaxNoise::with_k(2.0)),
        SimplexMethod::Pc(PointComparison::new()),
    ] {
        let res = m.run(
            &obj,
            vec![vec![3.0], vec![-1.0]],
            Termination::tolerance(1e-12),
            TimeMode::Parallel,
            1,
        );
        assert!(
            q.value(&res.best_point) < 1e-6,
            "{} got {:?}",
            m.name(),
            res.best_point
        );
    }
}

#[test]
fn mckinnon_counterexample_terminates_and_makes_progress() {
    // The classic surface where NM can converge to a non-stationary point;
    // we only require graceful termination and descent from the start.
    let mk = McKinnon::default();
    let obj = Noisy::new(mk, ZeroNoise);
    let init = vec![vec![1.0, 1.0], vec![0.8, 0.6], vec![0.9, 0.9]];
    let start_best = init
        .iter()
        .map(|p| mk.value(p))
        .fold(f64::INFINITY, f64::min);
    let res = Det::new().run(
        &obj,
        init,
        Termination::tolerance(1e-10),
        TimeMode::Parallel,
        1,
    );
    assert!(mk.value(&res.best_point) < start_best);
    assert!(res.iterations < 1_000_000);
}

#[test]
fn relative_noise_model_is_handled() {
    // Noise scaling with |f|: large values are very noisy, the basin quiet.
    let sphere = Sphere::new(3);
    let obj = Noisy::new(
        sphere,
        RelativeNoise {
            fraction: 0.3,
            floor: 0.01,
        },
    );
    // A single start can stall when the whole trajectory stays in the
    // high-|f| (hence high-noise) region and the time budget drains into
    // resampling; that is expected MN behaviour, not a defect. Assert the
    // median of three independent starts instead of one arbitrary seed.
    let mut finals: Vec<f64> = (0..3u64)
        .map(|seed| {
            let init = init::random_uniform(3, -5.0, 5.0, seed);
            let res = MaxNoise::with_k(2.0).run(
                &obj,
                init,
                Termination {
                    tolerance: Some(1e-4),
                    max_time: Some(5e4),
                    max_iterations: Some(5_000),
                },
                TimeMode::Parallel,
                seed,
            );
            sphere.value(&res.best_point)
        })
        .collect();
    finals.sort_by(|a, b| a.partial_cmp(b).unwrap());
    assert!(finals[1] < 1.0, "median of 3 starts: {finals:?}");
}

#[test]
fn extended_suite_is_solvable_noise_free() {
    let term = Termination::tolerance(1e-13);
    // Unimodal members of the extended suite must be solved exactly.
    let z = Zakharov::new(3);
    let res = Det::new().run(
        &Noisy::new(z, ZeroNoise),
        init::random_uniform(3, -2.0, 2.0, 3),
        term,
        TimeMode::Parallel,
        3,
    );
    assert!(
        z.value(&res.best_point) < 1e-6,
        "Zakharov: {}",
        z.value(&res.best_point)
    );

    let q = IllConditionedQuadratic::new(4, 1e4);
    let res = Det::new().run(
        &Noisy::new(IllConditionedQuadratic::new(4, 1e4), ZeroNoise),
        init::random_uniform(4, -2.0, 2.0, 4),
        term,
        TimeMode::Parallel,
        4,
    );
    assert!(
        q.value(&res.best_point) < 1e-4,
        "ill-conditioned: {}",
        q.value(&res.best_point)
    );
}

#[test]
fn multimodal_suite_favours_global_strategies() {
    // Ackley/Griewank/Levy from a wide box: restarting MN should do at
    // least as well as a single MN run under the same budget, and PSO+MN
    // should find a deep basin.
    let term = Termination {
        tolerance: Some(1e-8),
        max_time: Some(2e4),
        max_iterations: Some(5_000),
    };
    let ackley = Ackley::new(2);
    let obj = Noisy::new(ackley, ConstantNoise(0.1));
    let single = MaxNoise::with_k(2.0).run(
        &obj,
        init::random_uniform(2, -20.0, 20.0, 5),
        term,
        TimeMode::Parallel,
        5,
    );
    let multi = RestartedSimplex::new(SimplexMethod::Mn(MaxNoise::with_k(2.0)), -20.0, 20.0).run(
        &obj,
        term,
        TimeMode::Parallel,
        5,
    );
    // Restarting must reach a deep basin even when a single run from the
    // same budget can strand on a shoulder, and must be no worse than the
    // single run beyond noise scale (sd = 0.1; comparing two near-optimal
    // noisy outcomes at 1e-9 slack would be a coin flip).
    assert!(
        ackley.value(&multi.best_point) < 1.0,
        "multistart stranded at {}",
        ackley.value(&multi.best_point)
    );
    assert!(ackley.value(&multi.best_point) <= ackley.value(&single.best_point) + 0.1);

    let levy = Levy::new(2);
    let obj = Noisy::new(levy, ConstantNoise(0.1));
    let hybrid = PsoSimplex::new(
        Pso::in_box(-10.0, 10.0),
        SimplexMethod::Mn(MaxNoise::with_k(2.0)),
    )
    .run(&obj, term, TimeMode::Parallel, 6);
    assert!(
        levy.value(&hybrid.best_point) < 2.0,
        "Levy: {}",
        levy.value(&hybrid.best_point)
    );

    let grie = Griewank::new(2);
    let obj = Noisy::new(grie, ConstantNoise(0.05));
    let hybrid = PsoSimplex::new(
        Pso::in_box(-50.0, 50.0),
        SimplexMethod::Pc(PointComparison::new()),
    )
    .run(&obj, term, TimeMode::Parallel, 7);
    assert!(
        grie.value(&hybrid.best_point) < 1.0,
        "Griewank: {}",
        grie.value(&hybrid.best_point)
    );
}

#[test]
fn explicit_initial_simplex_is_respected() {
    // The paper insists initial vertices are user-provided, not automated:
    // verify an explicit simplex is used verbatim (iteration 0 ordering
    // reflects it).
    let sphere = Sphere::new(2);
    let obj = Noisy::new(sphere, ZeroNoise);
    let init = noisy_simplex::init::explicit(vec![vec![5.0, 5.0], vec![5.1, 5.0], vec![5.0, 5.1]]);
    let res = Det::new().run(
        &obj,
        init,
        Termination {
            tolerance: None,
            max_time: None,
            max_iterations: Some(1),
        },
        TimeMode::Parallel,
        1,
    );
    // After a single iteration the simplex must still be near the corner.
    assert!(res.best_point.iter().all(|&x| x > 4.0));
}

#[test]
fn empirical_error_mode_optimizes_comparably() {
    // PC with batch-estimated (non-oracle) error bars still solves a noisy
    // quadratic — the DESIGN.md oracle-vs-empirical ablation's quality leg.
    let sphere = Sphere::new(2);
    let obj = Noisy::empirical(sphere, ConstantNoise(5.0), 1.0);
    let res = PointComparison::new().run(
        &obj,
        init::random_uniform(2, -5.0, 5.0, 8),
        Termination {
            tolerance: Some(1e-3),
            max_time: Some(5e4),
            max_iterations: Some(5_000),
        },
        TimeMode::Parallel,
        8,
    );
    assert!(
        sphere.value(&res.best_point) < 2.0,
        "empirical-mode PC got {}",
        sphere.value(&res.best_point)
    );
}

#[test]
fn adaptive_coefficients_are_competitive_in_higher_dimensions() {
    // Gao–Han coefficients vs the classical (1, 0.5, 2) on noise-free
    // Rosenbrock d = 10 under an iteration budget: adaptive should reach a
    // value within an order of magnitude (usually far better).
    use stoch_eval::functions::Rosenbrock;
    let d = 10;
    let rosen = Rosenbrock::new(d);
    let obj = Noisy::new(rosen, ZeroNoise);
    let term = Termination {
        tolerance: Some(1e-14),
        max_time: None,
        max_iterations: Some(4_000),
    };
    let mut classical_log = 0.0;
    let mut adaptive_log = 0.0;
    for s in 0..3u64 {
        let init = init::random_uniform(d, -2.0, 2.0, 100 + s);
        let classical = Det::new().run(&obj, init.clone(), term, TimeMode::Parallel, s);
        let adaptive = Det {
            cfg: SimplexConfig {
                coefficients: Coefficients::adaptive(d),
                continuous: false,
                ..SimplexConfig::default()
            },
        }
        .run(&obj, init, term, TimeMode::Parallel, s);
        classical_log += rosen.value(&classical.best_point).max(1e-14).log10();
        adaptive_log += rosen.value(&adaptive.best_point).max(1e-14).log10();
    }
    assert!(
        adaptive_log <= classical_log + 3.0,
        "adaptive {adaptive_log} vs classical {classical_log} (sum log10 over 3 seeds)"
    );
}
