//! Multi-run service scale-up (DESIGN.md §13).
//!
//! Exercises the `nsx-sched` shared-fleet scheduler at service scale and
//! proves its load-bearing invariant on the way:
//!
//! 1. **Determinism gate** — one MN run is executed solo on a serial
//!    backend, then again admitted among 15 neighbours at `width=4`,
//!    `quantum=1` over a threaded fleet (so it is repeatedly preempted to
//!    checkpoint bytes and resumed, migrating serial → fleet). The two
//!    results must be bit-identical, and the run must actually have been
//!    preempted. Any breach exits 1.
//! 2. **Service scale** — 1000 concurrent tiny runs (random priorities and
//!    weights) time-slice over one shared worker pool; per-run
//!    admit-to-completion latency percentiles (p50/p90/p99) are reported.
//!    A service phase in which no dispatch merged two runs' rounds exits 1.
//! 3. **Width sweep** — throughput (runs/second) as the fleet width grows
//!    1→16, locating the saturation knee where extra width stops paying.
//!
//! Writes `BENCH_service.json`.
//!
//! ```text
//! cargo run --release --bin service_scaleup -- [--smoke] [--out <path>]
//! ```

use mw_framework::ThreadedBackend;
use noisy_simplex::prelude::*;
use noisy_simplex::session::RunSession;
use nsx_sched::{RunSpec, SchedConfig, Scheduler};
use repro_bench::apply_smoke_defaults;
use std::sync::Arc;
use std::time::Instant;
use stoch_eval::functions::{Rosenbrock, Sphere};
use stoch_eval::noise::ConstantNoise;
use stoch_eval::sampler::Noisy;

/// Runs in the service-scale phase (the 1k-concurrent-runs exhibit).
const SERVICE_RUNS: usize = 1000;
/// Runs per width in the saturation sweep.
const SWEEP_RUNS: usize = 200;
/// Widths probed for the saturation knee.
const SWEEP_WIDTHS: [usize; 5] = [1, 2, 4, 8, 16];

fn serial_cfg() -> SimplexConfig {
    SimplexConfig {
        backend: BackendChoice::Serial,
        ..SimplexConfig::default()
    }
}

fn same_result(a: &RunResult, b: &RunResult) -> bool {
    a.best_point == b.best_point
        && a.best_observed.to_bits() == b.best_observed.to_bits()
        && a.iterations == b.iterations
        && a.elapsed.to_bits() == b.elapsed.to_bits()
        && a.total_sampling.to_bits() == b.total_sampling.to_bits()
        && a.stop == b.stop
        && a.trace.points().len() == b.trace.points().len()
}

/// A tiny run spec: Sphere 2-d, a handful of iterations, per-index seed.
fn tiny_spec(
    obj: &Noisy<Sphere, ConstantNoise>,
    i: usize,
) -> RunSpec<'_, Noisy<Sphere, ConstantNoise>> {
    let term = Termination {
        tolerance: None,
        max_time: None,
        max_iterations: Some(5),
    };
    let init = init::random_uniform(2, -3.0, 3.0, 10_000 + i as u64);
    // Deterministic pseudo-random priorities and weights per run.
    let priority = (i % 5) as i32 - 2;
    let weight = 1.0 + (i % 4) as f64;
    RunSpec::new(
        obj,
        init,
        serial_cfg(),
        term,
        TimeMode::Parallel,
        i as u64,
        Driver::Det,
    )
    .priority(priority)
    .weight(weight)
}

/// Phase 1: the preempted-and-resumed run must equal its solo execution
/// bitwise. Returns (identical, preemptions_of_target).
fn determinism_gate(workers: usize) -> (bool, u64) {
    let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(10.0));
    let term = Termination {
        tolerance: None,
        max_time: None,
        max_iterations: Some(40),
    };
    let init = init::random_uniform(2, -4.0, 4.0, 77);
    let driver = Driver::Mn(MnParams::default());

    let solo = RunSession::new(
        &obj,
        init.clone(),
        serial_cfg(),
        term,
        TimeMode::Parallel,
        7,
        driver,
    )
    .run_to_completion();

    // The same run admitted among 15 neighbours, width 4, quantum 1: it is
    // suspended to bytes and resumed onto the threaded fleet every slice.
    let mut sched = Scheduler::new(
        SchedConfig {
            width: 4,
            quantum: 1,
        },
        Arc::new(ThreadedBackend::new(workers)),
    );
    let target = sched
        .admit(RunSpec::new(
            &obj,
            init,
            serial_cfg(),
            term,
            TimeMode::Parallel,
            7,
            driver,
        ))
        .expect("admission failed");
    for n in 0..15u64 {
        let neighbour_init = init::random_uniform(2, -4.0, 4.0, 500 + n);
        sched
            .admit(
                RunSpec::new(
                    &obj,
                    neighbour_init,
                    serial_cfg(),
                    term,
                    TimeMode::Parallel,
                    100 + n,
                    driver,
                )
                .priority((n % 3) as i32)
                .weight(1.0 + (n % 2) as f64),
            )
            .expect("admission failed");
    }
    sched.run();
    let preemptions = sched
        .run_registry(target)
        .map(|r| r.counter("sched.run.preemptions").get())
        .unwrap_or(0);
    let identical = sched
        .result(target)
        .is_some_and(|got| same_result(&solo, got));
    (identical, preemptions)
}

struct ServiceStats {
    wall_secs: f64,
    p50: f64,
    p90: f64,
    p99: f64,
    preemptions: u64,
    queue_depth_hwm: u64,
    pool_jobs: u64,
    merged_dispatches: u64,
}

/// Phase 2: 1000 tiny runs over one shared pool; per-run admit-to-done
/// latency distribution.
fn service_scale(workers: usize, width: usize, quantum: u64) -> ServiceStats {
    let obj = Noisy::new(Sphere::new(2), ConstantNoise(1.0));
    let backend = Arc::new(ThreadedBackend::new(workers));
    let pool = Arc::clone(backend.pool());
    let mut sched: Scheduler<Noisy<Sphere, ConstantNoise>> =
        Scheduler::new(SchedConfig { width, quantum }, backend);
    // Shared-pool accounting (queue depth, jobs) lands in the service
    // registry — one attachment covers every run on the pool.
    sched.attach_pool(&pool);
    for i in 0..SERVICE_RUNS {
        sched.admit(tiny_spec(&obj, i)).expect("admission failed");
    }
    let t0 = Instant::now();
    let mut done_at: Vec<Option<f64>> = vec![None; SERVICE_RUNS];
    while sched.tick() {
        let now = t0.elapsed().as_secs_f64();
        for (i, slot) in done_at.iter_mut().enumerate() {
            if slot.is_none() && sched.result(i as u64).is_some() {
                *slot = Some(now);
            }
        }
    }
    let wall_secs = t0.elapsed().as_secs_f64();
    let mut lat: Vec<f64> = done_at.iter().map(|d| d.unwrap_or(wall_secs)).collect();
    lat.sort_by(f64::total_cmp);
    let pct = |p: f64| lat[((lat.len() - 1) as f64 * p) as usize];
    let svc = sched.service_registry();
    ServiceStats {
        wall_secs,
        p50: pct(0.50),
        p90: pct(0.90),
        p99: pct(0.99),
        preemptions: svc.counter("sched.preemptions").get(),
        queue_depth_hwm: svc.gauge("sched.queue_depth_hwm").max(),
        pool_jobs: svc.counter("mw.pool.jobs_submitted").get(),
        merged_dispatches: svc.counter("sched.fleet.merged_dispatches").get(),
    }
}

/// Phase 3: throughput per width; the knee is the last width whose gain
/// over its predecessor exceeds 10%.
fn width_sweep(workers: usize, quantum: u64) -> (Vec<(usize, f64)>, usize) {
    let obj = Noisy::new(Sphere::new(2), ConstantNoise(1.0));
    let mut sweep = Vec::new();
    for width in SWEEP_WIDTHS {
        let mut sched = Scheduler::new(
            SchedConfig { width, quantum },
            Arc::new(ThreadedBackend::new(workers)),
        );
        for i in 0..SWEEP_RUNS {
            sched.admit(tiny_spec(&obj, i)).expect("admission failed");
        }
        let t0 = Instant::now();
        sched.run();
        let secs = t0.elapsed().as_secs_f64().max(1e-9);
        sweep.push((width, SWEEP_RUNS as f64 / secs));
    }
    let mut knee = sweep[0].0;
    for w in 1..sweep.len() {
        if sweep[w].1 > sweep[w - 1].1 * 1.10 {
            knee = sweep[w].0;
        } else {
            break;
        }
    }
    (sweep, knee)
}

fn main() {
    let mut out = std::path::PathBuf::from("BENCH_service.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => apply_smoke_defaults(),
            "--out" => match args.next() {
                Some(p) => out = p.into(),
                None => {
                    eprintln!("error: --out requires a path argument");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("error: unknown argument `{other}`");
                eprintln!("usage: service_scaleup [--smoke] [--out <path>]");
                std::process::exit(2);
            }
        }
    }

    let workers = std::thread::available_parallelism().map_or(2, |n| n.get());
    println!(
        "multi-run service scale-up: {SERVICE_RUNS} runs over one shared pool ({workers} workers)"
    );

    let (identical, target_preemptions) = determinism_gate(workers);
    println!(
        "determinism gate: preempted/resumed run identical to solo = {identical} \
         (target preempted {target_preemptions}x)"
    );

    let stats = service_scale(workers, 8, 2);
    println!(
        "service: {SERVICE_RUNS} runs in {:.3}s; latency p50 {:.3}s p90 {:.3}s p99 {:.3}s",
        stats.wall_secs, stats.p50, stats.p90, stats.p99
    );
    println!(
        "         preemptions {}, queue depth hwm {}, pool jobs {}, merged dispatches {}",
        stats.preemptions, stats.queue_depth_hwm, stats.pool_jobs, stats.merged_dispatches
    );

    let (sweep, knee) = width_sweep(workers, 2);
    println!("width,runs_per_sec");
    for (w, rps) in &sweep {
        println!("{w},{rps:.1}");
    }
    println!("saturation knee at width {knee}");

    let body = render_json(workers, identical, target_preemptions, &stats, &sweep, knee);
    if let Err(e) = std::fs::write(&out, &body) {
        eprintln!("error: cannot write {}: {e}", out.display());
        std::process::exit(1);
    }
    println!("written to {}", out.display());

    if !identical {
        eprintln!("error: preempted/resumed run diverged from solo — determinism contract broken");
        std::process::exit(1);
    }
    if target_preemptions == 0 {
        eprintln!(
            "error: the determinism gate never preempted its target — the exhibit is vacuous"
        );
        std::process::exit(1);
    }
    if stats.merged_dispatches == 0 {
        eprintln!(
            "error: the service phase never merged two runs' rounds into one dispatch — \
             the fleet is not batching"
        );
        std::process::exit(1);
    }
}

fn render_json(
    workers: usize,
    identical: bool,
    target_preemptions: u64,
    stats: &ServiceStats,
    sweep: &[(usize, f64)],
    knee: usize,
) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"workers\": {workers},\n"));
    s.push_str(&format!("  \"service_runs\": {SERVICE_RUNS},\n"));
    s.push_str(&format!(
        "  \"determinism\": {{\"identical\": {identical}, \"target_preemptions\": {target_preemptions}}},\n"
    ));
    s.push_str(&format!(
        "  \"latency_secs\": {{\"p50\": {:.6}, \"p90\": {:.6}, \"p99\": {:.6}, \"wall\": {:.6}}},\n",
        stats.p50, stats.p90, stats.p99, stats.wall_secs
    ));
    s.push_str(&format!(
        "  \"service\": {{\"preemptions\": {}, \"queue_depth_hwm\": {}, \"pool_jobs\": {}, \"merged_dispatches\": {}}},\n",
        stats.preemptions, stats.queue_depth_hwm, stats.pool_jobs, stats.merged_dispatches
    ));
    s.push_str("  \"width_sweep\": [\n");
    for (i, (w, rps)) in sweep.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"width\": {w}, \"runs_per_sec\": {rps:.3}}}{}\n",
            if i + 1 < sweep.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!("  \"saturation_knee_width\": {knee}\n"));
    s.push_str("}\n");
    s
}
