//! One optimization run, and a closed loop over a deck of them, driven
//! through the public session API with every setting spelled out.

use crate::deck::RunPlan;
use crate::trace::{self, Kind};
use mw_framework::pool::{default_respawn_budget, RetryPolicy};
use mw_framework::{
    BackoffPolicy, FaultPlan, HeartbeatPolicy, HedgePolicy, ProcessBackend, ThreadedBackend,
};
use noisy_simplex::checkpoint::CheckpointConfig;
use noisy_simplex::config::{
    BackendChoice, BreakdownAction, BreakdownPolicy, NonFinitePolicy, SamplingPolicy,
    SimplexConfig, TransportChoice,
};
use noisy_simplex::geometry::Coefficients;
use noisy_simplex::result::{RunNote, RunResult};
use noisy_simplex::session::{RunSession, SessionStatus};
use noisy_simplex::termination::Termination;
use obs::MetricsRegistry;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use stoch_eval::backend::SamplingBackend;
use stoch_eval::clock::TimeMode;
use stoch_eval::objective::StochasticObjective;
use stoch_eval::stats::EstimatorChoice;

/// The engine configuration of every run, built field by field so that no
/// environment variable can reach it. The backend is always passed in
/// explicitly, so `backend` and `transport` are never consulted.
pub fn simplex_config(checkpoint: Option<CheckpointConfig>) -> SimplexConfig {
    SimplexConfig {
        coefficients: Coefficients {
            alpha: 1.0,
            beta: 0.5,
            gamma: 2.0,
        },
        sampling: SamplingPolicy {
            initial_dt: 1.0,
            growth: 1.5,
        },
        continuous: true,
        backend: BackendChoice::Serial,
        transport: TransportChoice::Inproc,
        retry: RetryPolicy::default(),
        faults: None,
        respawn_budget: None,
        checkpoint,
        nonfinite: NonFinitePolicy::Quarantine,
        estimator: EstimatorChoice::Welford,
        breakdown: BreakdownPolicy {
            action: BreakdownAction::Note,
            min_samples: 64,
            kurtosis: 4.0,
            outlier_frac: 0.01,
        },
    }
}

/// `workers` threads, no injected faults, default retries, hedging off.
pub fn threaded_backend(workers: usize, registry: Option<&MetricsRegistry>) -> ThreadedBackend {
    ThreadedBackend::with_options(
        workers,
        FaultPlan::none(),
        RetryPolicy::default(),
        default_respawn_budget(workers),
        registry,
    )
    .with_hedge(HedgePolicy::default())
}

/// `workers` worker processes, no injected faults, default retries, hedging
/// off, default heartbeat and respawn backoff.
pub fn process_backend(workers: usize, registry: Option<&MetricsRegistry>) -> ProcessBackend {
    ProcessBackend::with_options(
        workers,
        FaultPlan::none(),
        RetryPolicy::default(),
        default_respawn_budget(workers),
        registry,
    )
    .with_hedge(HedgePolicy::default())
    .with_heartbeat(HeartbeatPolicy::default())
    .with_backoff(BackoffPolicy::default())
}

/// The bitwise comparison `service_scaleup` gates on.
pub fn same_result(a: &RunResult, b: &RunResult) -> bool {
    a.best_point == b.best_point
        && a.best_observed.to_bits() == b.best_observed.to_bits()
        && a.iterations == b.iterations
        && a.elapsed.to_bits() == b.elapsed.to_bits()
        && a.total_sampling.to_bits() == b.total_sampling.to_bits()
        && a.stop == b.stop
        && a.trace.points().len() == b.trace.points().len()
}

/// A run that lost its backend or a checkpoint write fails even when its
/// answer is right.
pub fn degraded(r: &RunResult) -> bool {
    r.notes.iter().any(|n| {
        matches!(
            n,
            RunNote::DegradedToSerial | RunNote::TransportDegraded | RunNote::CheckpointFailed
        )
    })
}

/// Drive one run to completion. Under `trace_pass` it records its run span
/// and one span per `RunSession::step`.
pub fn run_once<F: StochasticObjective>(
    obj: &F,
    plan: &RunPlan,
    cfg: &SimplexConfig,
    term: Termination,
    backend: Arc<dyn SamplingBackend<F::Stream>>,
    trace_pass: Option<u64>,
) -> RunResult {
    let run = trace_pass.map(|_| {
        let id = trace::next_id();
        trace::RUN.store(id, Ordering::Relaxed);
        trace::PARENT.store(id, Ordering::Relaxed);
        (id, trace::now_ns())
    });
    let mut session = RunSession::with_backend(
        obj,
        plan.init.clone(),
        cfg.clone(),
        term,
        TimeMode::Parallel,
        plan.seed,
        plan.algo.driver(),
        backend,
    );
    match run {
        None => while session.step() == SessionStatus::Running {},
        Some((run_id, _)) => loop {
            let step = trace::next_id();
            trace::PARENT.store(step, Ordering::Relaxed);
            let t0 = trace::now_ns();
            let status = session.step();
            trace::record(Kind::Step, t0, step, run_id, run_id, 0);
            if status == SessionStatus::Finished {
                break;
            }
        },
    }
    let result = session.finish();
    if let (Some((run_id, t0)), Some(pass)) = (run, trace_pass) {
        trace::record(Kind::Run, t0, run_id, pass, run_id, 0);
    }
    result
}

/// What one closed-loop pass measured.
#[derive(Debug, Default)]
pub struct ClosedPass {
    pub run_ms: Vec<f64>,
    pub wall_s: f64,
    pub failed: u64,
}

/// Run the deck in order, round and round, one run at a time, until
/// `seconds` have passed and at least `min_runs` runs are done. Each result
/// must equal `reference[k]` bit for bit; an empty slot takes the first
/// result, so later passes must repeat it.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop<F: StochasticObjective>(
    obj: &F,
    deck: &[RunPlan],
    cfg: &SimplexConfig,
    term: Termination,
    backend: &Arc<dyn SamplingBackend<F::Stream>>,
    seconds: f64,
    min_runs: usize,
    reference: &mut [Option<RunResult>],
    traced: bool,
) -> ClosedPass {
    let pass = traced.then(|| (trace::next_id(), trace::now_ns()));
    let mut out = ClosedPass::default();
    let t0 = Instant::now();
    let mut i = 0;
    while i < min_runs || t0.elapsed().as_secs_f64() < seconds {
        let k = i % deck.len();
        let t = Instant::now();
        let res = run_once(
            obj,
            &deck[k],
            cfg,
            term,
            Arc::clone(backend),
            pass.map(|p| p.0),
        );
        out.run_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let matches = reference[k].as_ref().is_none_or(|r| same_result(&res, r));
        if !matches || degraded(&res) {
            out.failed += 1;
        }
        if reference[k].is_none() {
            reference[k] = Some(res);
        }
        i += 1;
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    if let Some((id, start)) = pass {
        trace::record(Kind::Pass, start, id, 0, 0, 0);
    }
    out
}
