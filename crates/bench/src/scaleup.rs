//! The scale-up experiment (§3.4, Fig 3.18, Table 3.3): optimize the
//! Rosenbrock function in `d = 20 / 50 / 100` dimensions with the full MW
//! hierarchy — one dispatched task per vertex evaluation, `Ns` client
//! threads per task — measuring real wall-clock time per simplex step.

use mw_framework::alloc::Allocation;
use mw_framework::task::{MwDriver, MwTask, WorkerCtx};
use noisy_simplex::geometry::{centroid_excluding, contract, expand, order, reflect};
use std::time::Instant;
use stoch_eval::functions::Rosenbrock;
use stoch_eval::objective::{Objective, SampleStream};
use stoch_eval::rng::child_seed;
use stoch_eval::sampler::GaussianStream;

/// Evaluate the noisy Rosenbrock at a point: the task shipped to a worker.
///
/// The worker's server side fans out to `Ns` clients; each client samples an
/// independent system (an independent Gaussian stream at the same point) for
/// duration `dt`, and the server averages the client results — the vertex
/// estimate has variance `σ0²/(Ns·dt)`.
#[derive(Debug, Clone)]
pub struct VertexEvalTask {
    /// The point in parameter space.
    pub x: Vec<f64>,
    /// Inherent per-system noise magnitude.
    pub sigma0: f64,
    /// Sampling duration per client.
    pub dt: f64,
    /// Task seed (clients derive child seeds).
    pub seed: u64,
}

impl MwTask for VertexEvalTask {
    type Output = f64;

    fn execute(self, ctx: &WorkerCtx) -> f64 {
        let f = Rosenbrock::new(self.x.len()).value(&self.x);
        let shards = ctx.run_clients(|client| {
            let mut s = GaussianStream::new(f, self.sigma0, child_seed(self.seed, client as u64));
            s.extend(self.dt);
            s.estimate().value
        });
        shards.iter().sum::<f64>() / shards.len() as f64
    }
}

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

/// Run the DET simplex over the MW hierarchy on noisy Rosenbrock.
///
/// `max_steps` bounds the run; it stops early if the vertex spread drops
/// below `tol`.
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
/// given, the worker pool records its job, busy/idle and queue-depth
/// tallies into it (`mw.pool.*` metrics).
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
    let alloc = Allocation::new(d, ns);
    let driver = match registry {
        Some(reg) => MwDriver::with_metrics(alloc.workers(), ns, reg),
        None => MwDriver::new(alloc.workers(), ns),
    };
    let mut next_seed = seed;
    let mut seed_gen = move || {
        next_seed = next_seed.wrapping_add(1);
        child_seed(0xC0FFEE, next_seed)
    };

    let mut points = noisy_simplex::init::random_uniform(d, -6.0, 3.0, seed);
    let eval = |x: &[f64], s: u64| VertexEvalTask {
        x: x.to_vec(),
        sigma0,
        dt: eval_dt,
        seed: s,
    };

    // Initial concurrent evaluation of all d+1 vertices.
    let tasks: Vec<VertexEvalTask> = points.iter().map(|x| eval(x, seed_gen())).collect();
    let mut values = driver
        .dispatch_all(tasks)
        .expect("MW worker lost during scale-up bench");

    let t0 = Instant::now();
    let mut trace = Vec::new();
    let mut steps = 0u64;

    while steps < max_steps {
        let spread = {
            let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            max - min
        };
        if spread <= tol {
            break;
        }
        let ord = order(&values);
        let cent = centroid_excluding(&points, ord.max);
        let refl_x = reflect(&cent, &points[ord.max], 1.0);
        // The reflection and (prospective) expansion/contraction evaluations
        // are dispatched to the two trial-vertex workers concurrently.
        let refl_h = driver.dispatch(eval(&refl_x, seed_gen()));
        let g_ref = refl_h.recv().expect("MW worker lost");

        if g_ref < values[ord.min] {
            let exp_x = expand(&cent, &refl_x, 2.0);
            let g_exp = driver
                .dispatch(eval(&exp_x, seed_gen()))
                .recv()
                .expect("MW worker lost");
            if g_exp < g_ref {
                points[ord.max] = exp_x;
                values[ord.max] = g_exp;
            } else {
                points[ord.max] = refl_x;
                values[ord.max] = g_ref;
            }
        } else if g_ref < values[ord.max] {
            points[ord.max] = refl_x;
            values[ord.max] = g_ref;
        } else {
            let con_x = contract(&cent, &points[ord.max], 0.5);
            let g_con = driver
                .dispatch(eval(&con_x, seed_gen()))
                .recv()
                .expect("MW worker lost");
            if g_con < values[ord.max] {
                points[ord.max] = con_x;
                values[ord.max] = g_con;
            } else {
                // Collapse towards the best vertex and re-evaluate every
                // moved vertex as one round.
                let keep = points[ord.min].clone();
                let mut tasks = Vec::new();
                for (i, p) in points.iter_mut().enumerate() {
                    if i == ord.min {
                        continue;
                    }
                    for (pj, kj) in p.iter_mut().zip(&keep) {
                        *pj = 0.5 * *pj + 0.5 * kj;
                    }
                    tasks.push(eval(p, seed_gen()));
                }
                let outs = driver.dispatch_all(tasks).expect("MW worker lost");
                let moved = (0..values.len()).filter(|&i| i != ord.min);
                for (i, v) in moved.zip(outs) {
                    values[i] = v;
                }
            }
        }

        steps += 1;
        trace.push(ScaleupPoint {
            step: steps,
            wall_secs: t0.elapsed().as_secs_f64(),
            best_value: values.iter().cloned().fold(f64::INFINITY, f64::min),
        });
    }

    let total = t0.elapsed().as_secs_f64();
    ScaleupResult {
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // (the reflection) per simplex step.
        let jobs = reg.counter("mw.pool.jobs_submitted").get();
        assert!(
            jobs >= res.steps + 6,
            "only {jobs} jobs for {} steps",
            res.steps
        );
    }

    #[test]
    fn scaleup_trace_wall_time_is_monotone() {
        let res = scaleup_rosenbrock(5, 2, 0.1, 1.0, 50, 0.0, 7);
        for w in res.trace.windows(2) {
            assert!(w[1].wall_secs >= w[0].wall_secs);
            assert_eq!(w[1].step, w[0].step + 1);
        }
    }

    #[test]
    fn vertex_eval_task_averages_clients() {
        // With sigma0 = 0 every client returns exactly f(x).
        let driver = MwDriver::new(2, 4);
        let x = vec![0.0, 0.0, 0.0];
        let f = Rosenbrock::new(3).value(&x);
        let out = driver.dispatch_all(vec![VertexEvalTask {
            x,
            sigma0: 0.0,
            dt: 1.0,
            seed: 1,
        }]);
        assert_eq!(out.unwrap()[0], f);
    }

    #[test]
    fn more_clients_reduce_noise() {
        let driver = MwDriver::new(2, 1);
        let driver16 = MwDriver::new(2, 16);
        let x = vec![1.0, 1.0];
        let f = Rosenbrock::new(2).value(&x); // 0
        let noisy = |d: &MwDriver, n: usize| -> f64 {
            let tasks: Vec<VertexEvalTask> = (0..n as u64)
                .map(|s| VertexEvalTask {
                    x: x.clone(),
                    sigma0: 10.0,
                    dt: 1.0,
                    seed: s,
                })
                .collect();
            let outs = d.dispatch_all(tasks).unwrap();
            let mean_sq: f64 =
                outs.iter().map(|v| (v - f) * (v - f)).sum::<f64>() / outs.len() as f64;
            mean_sq.sqrt()
        };
        let rms1 = noisy(&driver, 64);
        let rms16 = noisy(&driver16, 64);
        assert!(
            rms16 < rms1,
            "16 clients should average noise down: {rms16} vs {rms1}"
        );
    }
}
