//! `service_fleet`: open-loop arrivals of short MN runs (noisy 2-d
//! Rosenbrock, mixed priorities and weights) into one `Scheduler` (width 8,
//! quantum 2, as in `service_scaleup`) over a shared `ThreadedBackend` of
//! `nproc` workers. Every run checkpoints durably at a sparse cadence.
//! Latency counts from each run's due time.

use crate::deck::{self, Arrival, RunPlan};
use crate::drive;
use crate::layers::{self, Tally, Tree};
use crate::report::Report;
use crate::stats::percentile;
use crate::trace::{self, Kind, Timed, TimedBackend, TimedObjective};
use crate::{host, Args, OUT_DIR};
use mw_framework::ThreadedBackend;
use noisy_simplex::checkpoint::{self, CheckpointConfig};
use noisy_simplex::config::SimplexConfig;
use noisy_simplex::result::RunResult;
use noisy_simplex::termination::Termination;
use nsx_sched::{RunSpec, SchedConfig, Scheduler};
use obs::MetricsRegistry;
use std::collections::HashMap;
use std::os::unix::fs::MetadataExt;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use stoch_eval::backend::{SamplingBackend, SerialBackend};
use stoch_eval::clock::TimeMode;
use stoch_eval::functions::Rosenbrock;
use stoch_eval::noise::ConstantNoise;
use stoch_eval::objective::StochasticObjective;
use stoch_eval::sampler::{Noisy, NoisyStream};

const DIM: usize = 2;
const SIGMA0: f64 = 10.0;
const SCHED: SchedConfig = SchedConfig {
    width: 8,
    quantum: 2,
};
/// Arrivals per second: about half the fleet's capacity when this benchmark
/// was introduced (410-430 runs/s with 3000 runs due within one second, on a
/// 2-core x86-64 host).
const RATE_PER_S: f64 = 100.0;
/// Runs per burst. A burst wider than the fleet makes the scheduler preempt
/// and resume within it, whatever the host's speed; one burst per period
/// keeps latency set by the scheduler rather than by chance pile-ups.
const BURST: usize = 12;
/// Checkpoint cadence, in iterations: sparse, so fsync does not swamp the
/// workload, and above the quantum, so a run writes at most once per tick.
const CKPT_EVERY: u64 = 10;
const SETUPS: usize = 5;
const WARMUP_RUNS: usize = 64;
/// Checkpoint payloads re-saved to time `checkpoint::save`.
const CKPT_REPLAYS: usize = 200;

fn termination() -> Termination {
    Termination {
        tolerance: Some(1e-6),
        max_time: Some(1e4),
        max_iterations: Some(30),
    }
}

fn spec<'a, F: StochasticObjective>(
    obj: &'a F,
    plan: &RunPlan,
    cfg: &SimplexConfig,
    term: Termination,
) -> RunSpec<'a, F> {
    RunSpec::new(
        obj,
        plan.init.clone(),
        cfg.clone(),
        term,
        TimeMode::Parallel,
        plan.seed,
        plan.algo.driver(),
    )
    .priority(plan.priority)
    .weight(plan.weight)
}

/// What one open-loop pass measured.
struct OpenPass {
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    wall_s: f64,
    results: Vec<Option<RunResult>>,
    wait_ms: Vec<f64>,
    preemptions: u64,
    queue_hwm: u64,
    fleet_jobs: u64,
    fleet_dispatches: u64,
    ckpt_writes: u64,
}

/// Admit each arrival when it is due, tick while any run is live, and sleep
/// to the next due time while none is. Traced, it records a span per tick and
/// counts checkpoint writes: every `checkpoint::save` renames a fresh file
/// into place, so a run's checkpoint changes inode once per write, and a run
/// writes at most once per tick.
fn open_loop<F: StochasticObjective>(
    obj: &F,
    arrivals: &[Arrival],
    cfg: &SimplexConfig,
    term: Termination,
    inner: Arc<dyn SamplingBackend<F::Stream>>,
    traced: bool,
) -> OpenPass {
    let mut sched = Scheduler::new(SCHED, inner);
    let n = arrivals.len();
    let mut out = OpenPass {
        latency_ms: Vec::with_capacity(n),
        late_ms: Vec::with_capacity(n),
        wall_s: 0.0,
        results: vec![None; n],
        wait_ms: Vec::new(),
        preemptions: 0,
        queue_hwm: 0,
        fleet_jobs: 0,
        fleet_dispatches: 0,
        ckpt_writes: 0,
    };
    let mut ids = Vec::with_capacity(n);
    let mut live: Vec<usize> = Vec::new();
    let mut inodes: HashMap<u64, u64> = HashMap::new();
    let pass = traced.then(|| (trace::next_id(), trace::now_ns()));
    trace::RUN.store(0, Ordering::Relaxed);
    let t0 = Instant::now();
    let mut next = 0;
    loop {
        let now = t0.elapsed().as_secs_f64();
        while next < n && arrivals[next].due_s <= now {
            let admitted = sched.admit(spec(obj, &arrivals[next].plan, cfg, term));
            ids.push(admitted.expect("no objective here dispatches on the fleet's own pool"));
            out.late_ms.push((now - arrivals[next].due_s) * 1e3);
            live.push(next);
            next += 1;
        }
        if live.is_empty() {
            if next == n {
                break;
            }
            std::thread::sleep(Duration::from_secs_f64(
                (arrivals[next].due_s - now).max(0.0),
            ));
            continue;
        }
        match pass {
            Some((pass_id, _)) => {
                let tick = trace::next_id();
                trace::PARENT.store(tick, Ordering::Relaxed);
                let start = trace::now_ns();
                sched.tick();
                trace::record(Kind::Tick, start, tick, pass_id, 0, 0);
            }
            None => {
                sched.tick();
            }
        }
        let done_s = t0.elapsed().as_secs_f64();
        live.retain(|&k| {
            let id = ids[k];
            if let (true, Some(ck)) = (traced, &cfg.checkpoint) {
                if let Ok(meta) = std::fs::metadata(ck.for_run(id).path) {
                    if inodes.insert(id, meta.ino()) != Some(meta.ino()) {
                        out.ckpt_writes += 1;
                    }
                }
            }
            match sched.result(id) {
                Some(r) => {
                    out.latency_ms.push((done_s - arrivals[k].due_s) * 1e3);
                    out.results[k] = Some(r.clone());
                    false
                }
                None => true,
            }
        });
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    if let Some((id, start)) = pass {
        trace::record(Kind::Pass, start, id, 0, 0, 0);
    }
    let svc = sched.service_registry();
    out.preemptions = svc.counter("sched.preemptions").get();
    out.queue_hwm = svc.gauge("sched.queue_depth_hwm").max();
    out.fleet_jobs = svc.counter("sched.fleet.jobs").get();
    out.fleet_dispatches = svc.counter("sched.fleet.dispatches").get();
    out.wait_ms = ids
        .iter()
        .filter_map(|&id| sched.run_registry(id))
        .map(|r| r.counter("sched.run.wait_nanos").get() as f64 / 1e6)
        .collect();
    out
}

/// Every run must equal its serial in-process execution bit for bit and
/// carry no degradation note.
fn check(report: &mut Report, pass: &OpenPass, reference: &[RunResult]) {
    let failed = pass
        .results
        .iter()
        .zip(reference)
        .filter(|(got, want)| {
            !got.as_ref()
                .is_some_and(|g| drive::same_result(g, want) && !drive::degraded(g))
        })
        .count();
    report.runs(pass.results.len(), failed as u64);
}

/// Durability: writes counted during the traced pass; size and
/// `checkpoint::save` time from re-saving the runs' last checkpoints.
fn ckpt_layer(report: &mut Report, ckpt: &CheckpointConfig, runs: usize, writes: u64) {
    let replay = ckpt.path.with_file_name("replay");
    let (mut bytes, mut ms) = (Vec::new(), Vec::new());
    for id in 0..runs as u64 {
        if ms.len() == CKPT_REPLAYS {
            break;
        }
        // Runs that finished before their first write have no checkpoint.
        let path = ckpt.for_run(id).path;
        let Ok(payload) = checkpoint::load(&path) else {
            continue;
        };
        let t0 = Instant::now();
        if let Err(e) = checkpoint::save(&replay, ckpt.retain, &payload) {
            report.problem(format!("checkpoint replay failed: {e}"));
            return;
        }
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        bytes.push(std::fs::metadata(&path).map_or(0.0, |m| m.len() as f64));
    }
    report.layer("ckpt.writes", Some(writes as f64));
    report.layer(
        "ckpt.bytes_per_write",
        (!bytes.is_empty()).then(|| bytes.iter().sum::<f64>() / bytes.len() as f64),
    );
    report.layer("ckpt.save_ms_p50", percentile(&ms, 0.5));
    report.layer("ckpt.save_ms_p90", percentile(&ms, 0.9));
}

pub fn run(args: &Args) -> Report {
    let workers = host::workers();
    let obj = Noisy::gaussian(Rosenbrock::new(DIM), ConstantNoise(SIGMA0));
    let mut report = Report::new(args.trace);
    let calib_before = host::calib_ms();
    let dir = Path::new(OUT_DIR).join("ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        report.problem(format!("cannot create {}: {e}", dir.display()));
        return report;
    }
    let ckpt = CheckpointConfig {
        path: dir.join("fleet"),
        every: CKPT_EVERY,
        retain: true,
    };
    let cfg = drive::simplex_config(Some(ckpt.clone()));
    let warm_cfg = drive::simplex_config(Some(CheckpointConfig {
        path: dir.join("warm"),
        ..ckpt.clone()
    }));
    let term = termination();
    let horizon = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let registry = MetricsRegistry::new();
    report.config(
        "objective",
        format!("rosenbrock d={DIM}, gaussian oracle noise sigma0={SIGMA0}, welford"),
    );
    report.config(
        "backend",
        format!(
            "threaded workers={workers} faults=none retry={:?} hedge=off, {SCHED:?}",
            mw_framework::RetryPolicy::default()
        ),
    );
    report.config(
        "arrivals",
        format!("{RATE_PER_S}/s in jittered periodic bursts of {BURST} over {horizon}s, MN(k=2), priority -2..=2, weight 1..=4, init U[-4,4)^{DIM}"),
    );
    report.config("termination", format!("{term:?}"));
    report.config("simplex", format!("{cfg:?}"));

    // Set-up: spawn the pool, generate the arrival schedule, and warm up with
    // a burst of runs through a scheduler of its own.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut built: Option<(Vec<Arrival>, Arc<ThreadedBackend>)> = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let t0 = Instant::now();
        let arrivals = deck::arrivals(args.seed, RATE_PER_S, BURST, horizon, DIM, -4.0, 4.0);
        let backend = Arc::new(drive::threaded_backend(
            workers,
            args.trace.then_some(&registry),
        ));
        let mut warm = Scheduler::new(
            SCHED,
            Arc::clone(&backend) as Arc<dyn SamplingBackend<NoisyStream>>,
        );
        for a in arrivals.iter().take(WARMUP_RUNS) {
            warm.admit(spec(&obj, &a.plan, &warm_cfg, term))
                .expect("no objective here dispatches on the fleet's own pool");
        }
        warm.run();
        drop(warm);
        setup_s.push(t0.elapsed().as_secs_f64());
        built = Some((arrivals, backend));
    }
    let (arrivals, backend) = built.expect("at least one set-up");

    // The serial in-process execution of the same runs, outside any timed pass.
    let serial: Arc<dyn SamplingBackend<NoisyStream>> = Arc::new(SerialBackend);
    let plain_cfg = drive::simplex_config(None);
    let reference: Vec<RunResult> = arrivals
        .iter()
        .map(|a| drive::run_once(&obj, &a.plan, &plain_cfg, term, Arc::clone(&serial), None))
        .collect();

    if !args.trace {
        let pass = open_loop(&obj, &arrivals, &cfg, term, backend.clone(), false);
        check(&mut report, &pass, &reference);
        let answers: Vec<&RunResult> = pass.results.iter().flatten().collect();
        let costs: Vec<f64> = answers
            .iter()
            .map(|r| {
                obj.true_value(&r.best_point)
                    .expect("Rosenbrock has a closed form")
            })
            .collect();
        let vtimes: Vec<f64> = answers.iter().map(|r| r.total_sampling).collect();
        let rate = pass.latency_ms.len() as f64 / pass.wall_s;
        report.end_to_end(&setup_s, &pass.latency_ms, rate, &costs, &vtimes);
    } else {
        let plain = open_loop(&obj, &arrivals, &cfg, term, backend.clone(), false);
        check(&mut report, &plain, &reference);
        let before = Tally::read(&registry);
        let tobj = TimedObjective(&obj);
        let inner: Arc<dyn SamplingBackend<Timed<NoisyStream>>> =
            Arc::new(TimedBackend::<Timed<NoisyStream>>::new(backend.clone()));
        let traced = open_loop(&tobj, &arrivals, &cfg, term, inner, true);
        check(&mut report, &traced, &reference);
        let tally = Tally::read(&registry).since(&before);
        let spans = trace::drain();
        let tree = Tree::new(&spans);
        layers::eval(&mut report, &tree);
        layers::mw(&mut report, &tree, &tree.jobs_by_batch(), workers, &tally);
        report.layer(
            "sched.tick_self_us_p50",
            percentile(&tree.self_us(Kind::Tick), 0.5),
        );
        report.layer("sched.preemptions", Some(traced.preemptions as f64));
        report.layer(
            "sched.jobs_per_dispatch",
            Some(traced.fleet_jobs as f64 / traced.fleet_dispatches.max(1) as f64),
        );
        report.layer("sched.wait_ms_p50", percentile(&traced.wait_ms, 0.5));
        report.layer("sched.queue_depth_hwm", Some(traced.queue_hwm as f64));
        report.layer("gen.late_ms_p90", percentile(&traced.late_ms, 0.9));
        ckpt_layer(&mut report, &ckpt, traced.results.len(), traced.ckpt_writes);
        report.layer(
            "trace.overhead_pct",
            layers::overhead_pct(&plain.latency_ms, &traced.latency_ms),
        );
        crate::write_trace(&mut report, args, &spans);
    }
    drop(backend);
    let _ = std::fs::remove_dir_all(&dir);
    let calib_after = host::calib_ms();
    crate::finish_host(&mut report, args, calib_before, calib_after);
    report
}
