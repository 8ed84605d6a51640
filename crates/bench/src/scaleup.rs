//! The scale-up experiment (§3.4, Fig 3.18, Table 3.3): the library's DET
//! simplex on noisy Rosenbrock in `d = 20 / 50 / 100` dimensions, driven
//! step by step through [`RunSession`] with every sampling round fanned
//! over the paper's `d + 3` workers (one per vertex plus two for trial
//! vertices), measuring real wall-clock time per simplex step.
//!
//! The paper's `Ns` clients per vertex each sample an independent system
//! for time `t` at noise `σ0`, and their server reports the mean. That mean
//! is `N(f, σ0²/(Ns·t))`, the distribution of one Gaussian stream with
//! noise `σ0/√Ns`, whose oracle standard error is the same too. So a vertex
//! here is one such stream, and `Ns` only scales the noise.

use mw_framework::alloc::Allocation;
use mw_framework::ThreadedBackend;
use noisy_simplex::prelude::*;
use std::sync::Arc;
use std::time::Instant;
use stoch_eval::functions::Rosenbrock;
use stoch_eval::noise::ConstantNoise;
use stoch_eval::sampler::Noisy;

/// One per-step record of the scale-up run.
#[derive(Debug, Clone, Copy)]
pub struct ScaleupPoint {
    /// 1-based simplex step.
    pub step: u64,
    /// Wall-clock seconds since the optimization started.
    pub wall_secs: f64,
    /// Best observed vertex value after the step.
    pub best_value: f64,
}

/// Result of one scale-up run.
#[derive(Debug, Clone)]
pub struct ScaleupResult {
    /// Problem dimensionality.
    pub d: usize,
    /// Clients per vertex.
    pub ns: usize,
    /// The MW processor allocation this deployment represents.
    pub alloc: Allocation,
    /// Steps actually taken.
    pub steps: u64,
    /// Total wall-clock seconds.
    pub total_wall_secs: f64,
    /// Mean wall-clock seconds per simplex step (Fig 3.18c).
    pub secs_per_step: f64,
    /// Per-step trace (Figs 3.18a/b).
    pub trace: Vec<ScaleupPoint>,
}

/// Noisy Rosenbrock as one vertex of the deployment sees it: the mean of
/// `ns` clients at noise `sigma0` each.
fn objective(d: usize, ns: usize, sigma0: f64) -> Noisy<Rosenbrock, ConstantNoise> {
    Noisy::gaussian(
        Rosenbrock::new(d),
        ConstantNoise(sigma0 / (ns as f64).sqrt()),
    )
}

/// Run DET over the MW worker pool on noisy Rosenbrock.
///
/// Every evaluation is one sample of duration `eval_dt`. `max_steps`
/// bounds the run; it stops early once the vertex values spread by at most
/// `tol`.
pub fn scaleup_rosenbrock(
    d: usize,
    ns: usize,
    sigma0: f64,
    eval_dt: f64,
    max_steps: u64,
    tol: f64,
    seed: u64,
) -> ScaleupResult {
    scaleup_rosenbrock_with_metrics(d, ns, sigma0, eval_dt, max_steps, tol, seed, None)
}

/// [`scaleup_rosenbrock`] with optional run accounting: when `registry` is
/// given, the engine records its step tallies (`engine.*`) and the worker
/// pool its job, busy/idle and queue-depth tallies (`mw.pool.*`) into it.
#[allow(clippy::too_many_arguments)]
pub fn scaleup_rosenbrock_with_metrics(
    d: usize,
    ns: usize,
    sigma0: f64,
    eval_dt: f64,
    max_steps: u64,
    tol: f64,
    seed: u64,
    registry: Option<&obs::MetricsRegistry>,
) -> ScaleupResult {
    scaleup_run(d, ns, sigma0, eval_dt, max_steps, tol, seed, registry).0
}

/// The scale-up run and the engine's own result.
#[allow(clippy::too_many_arguments)]
fn scaleup_run(
    d: usize,
    ns: usize,
    sigma0: f64,
    eval_dt: f64,
    max_steps: u64,
    tol: f64,
    seed: u64,
    registry: Option<&obs::MetricsRegistry>,
) -> (ScaleupResult, RunResult) {
    let alloc = Allocation::new(d, ns);
    let backend = match registry {
        Some(reg) => ThreadedBackend::with_metrics(alloc.workers(), reg),
        None => ThreadedBackend::new(alloc.workers()),
    };
    let obj = objective(d, ns, sigma0);
    let (cfg, term) = det_setup(eval_dt, max_steps, tol);
    let init = init::random_uniform(d, -6.0, 3.0, seed);
    // Construction samples every vertex once, before the clock starts.
    let mut session = RunSession::with_backend(
        &obj,
        init,
        cfg,
        term,
        TimeMode::Parallel,
        seed,
        Driver::Det,
        Arc::new(backend),
    );
    if let Some(reg) = registry {
        session.attach_metrics(EngineMetrics::register(reg));
    }

    let t0 = Instant::now();
    let mut walls = Vec::new();
    while session.step() == SessionStatus::Running {
        walls.push(t0.elapsed().as_secs_f64());
    }
    let total = t0.elapsed().as_secs_f64();
    let run = session.finish();

    let trace: Vec<ScaleupPoint> = run
        .trace
        .points()
        .iter()
        .zip(walls)
        .map(|(p, wall_secs)| ScaleupPoint {
            step: p.iteration,
            wall_secs,
            best_value: p.best_observed,
        })
        .collect();
    let steps = run.iterations;
    let result = ScaleupResult {
        d,
        ns,
        alloc,
        steps,
        total_wall_secs: total,
        secs_per_step: if steps > 0 {
            total / steps as f64
        } else {
            f64::NAN
        },
        trace,
    };
    (result, run)
}

/// DET's configuration and termination for a scale-up run: one sample of
/// `eval_dt` per evaluation, at most `max_steps` steps, stop at spread
/// `tol`.
fn det_setup(eval_dt: f64, max_steps: u64, tol: f64) -> (SimplexConfig, Termination) {
    let mut cfg = Det::new().cfg;
    cfg.sampling.initial_dt = eval_dt;
    let term = Termination {
        tolerance: Some(tol),
        max_time: None,
        max_iterations: Some(max_steps),
    };
    (cfg, term)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stoch_eval::objective::{SampleStream, StochasticObjective};
    use stoch_eval::SerialBackend;

    #[test]
    fn scaleup_runs_and_descends_in_20d() {
        let res = scaleup_rosenbrock(20, 1, 0.1, 1.0, 300, 1e-6, 42);
        assert!(res.steps > 0);
        assert_eq!(res.alloc.total(), 70);
        let first = res.trace.first().unwrap().best_value;
        let last = res.trace.last().unwrap().best_value;
        assert!(last < first, "no descent: {first} -> {last}");
    }

    #[test]
    fn scaleup_with_metrics_counts_dispatched_jobs() {
        let reg = obs::MetricsRegistry::new();
        let res = scaleup_rosenbrock_with_metrics(5, 1, 0.1, 1.0, 20, 0.0, 3, Some(&reg));
        assert!(res.steps > 0);
        // d+1 initial vertex evaluations, then at least one dispatch
        // (the reflection) per simplex step, each shipped to the pool or,
        // when too cheap to ship, run inline.
        let jobs = reg.counter("mw.pool.jobs_submitted").get()
            + reg.counter("mw.backend.inline_jobs").get();
        assert!(
            jobs >= res.steps + 6,
            "only {jobs} jobs for {} steps",
            res.steps
        );
        assert_eq!(
            reg.counter("engine.steps.reflect").get()
                + reg.counter("engine.steps.expand").get()
                + reg.counter("engine.steps.contract").get()
                + reg.counter("engine.steps.collapse").get(),
            res.steps
        );
    }

    #[test]
    fn scaleup_trace_wall_time_is_monotone() {
        let res = scaleup_rosenbrock(5, 2, 0.1, 1.0, 50, 0.0, 7);
        assert_eq!(res.trace.len() as u64, res.steps);
        for w in res.trace.windows(2) {
            assert!(w[1].wall_secs >= w[0].wall_secs);
            assert_eq!(w[1].step, w[0].step + 1);
        }
    }

    #[test]
    fn sixteen_clients_quarter_the_noise() {
        let x = vec![1.0, 1.0];
        let mut one = objective(2, 1, 10.0).open(&x, 1);
        let mut sixteen = objective(2, 16, 10.0).open(&x, 1);
        one.extend(1.0);
        sixteen.extend(1.0);
        assert_eq!(one.estimate().std_err, 10.0);
        assert_eq!(sixteen.estimate().std_err, 2.5);
    }

    #[test]
    fn scaleup_runs_the_librarys_det_bit_for_bit() {
        // Fig 3.18 on its d+3 worker threads against DET driven through a
        // session on the serial backend: the same run, bit for bit.
        let (d, ns, sigma0, dt, steps, tol, seed) = (20, 1, 0.5, 1.0, 120, 1e-9, 62);
        let (scaled, run) = scaleup_run(d, ns, sigma0, dt, steps, tol, seed, None);
        let obj = objective(d, ns, sigma0);
        let (cfg, term) = det_setup(dt, steps, tol);
        let serial = RunSession::with_backend(
            &obj,
            init::random_uniform(d, -6.0, 3.0, seed),
            cfg,
            term,
            TimeMode::Parallel,
            seed,
            Det::new().driver(),
            Arc::new(SerialBackend),
        )
        .run_to_completion();
        assert_eq!(scaled.steps, serial.iterations);
        assert_eq!(run.best_point, serial.best_point);
        assert_eq!(run.best_observed.to_bits(), serial.best_observed.to_bits());
        let per_step: Vec<u64> = scaled
            .trace
            .iter()
            .map(|p| p.best_value.to_bits())
            .collect();
        let want: Vec<u64> = serial
            .trace
            .points()
            .iter()
            .map(|p| p.best_observed.to_bits())
            .collect();
        assert_eq!(per_step, want);
    }
}
