//! Criterion micro-benchmarks for the MW framework: round-trip dispatch
//! latency and batched fan-out throughput — the in-process analogue of the
//! paper's master↔worker communication overhead (§3.4's "minor
//! degradation... attributed to the I/O").

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mw_framework::{
    default_respawn_budget, FaultPlan, MwDriver, MwPool, MwTask, RetryPolicy, ThreadedBackend,
    WorkerCtx,
};
use std::hint::black_box;
use std::time::Instant;
use stoch_eval::{
    ConstantNoise, Noisy, Rosenbrock, SamplingBackend, StochasticObjective, StreamJob,
};

struct NoopTask;
impl MwTask for NoopTask {
    type Output = u64;
    fn execute(self, ctx: &WorkerCtx) -> u64 {
        ctx.worker_id as u64
    }
}

/// `iters` rounds of a multiply-add chain the compiler cannot skip.
fn spin(iters: u64) -> u64 {
    (0..iters).fold(0u64, |x, i| {
        black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i))
    })
}

fn bench_mw(c: &mut Criterion) {
    let pool = MwPool::new(4);
    c.bench_function("pool_call_roundtrip", |b| {
        b.iter(|| black_box(pool.call(|w| w + 1)))
    });

    let driver = MwDriver::new(4, 1);
    c.bench_function("driver_dispatch_all_23_tasks", |b| {
        // 23 = the d+3 workers of a 20-dimensional deployment.
        b.iter(|| {
            let tasks: Vec<NoopTask> = (0..23).map(|_| NoopTask).collect();
            black_box(driver.dispatch_all(tasks))
        })
    });

    // Two tasks of ~1 ms of fixed work each on a two-worker driver: the
    // batch takes about one task's time only when each worker gets a CPU
    // of its own promptly. (The work is a loop count, not a wall-clock
    // spin, so two tasks stacked on one CPU take twice as long.)
    struct SpinTask(u64);
    impl MwTask for SpinTask {
        type Output = u64;
        fn execute(self, _ctx: &WorkerCtx) -> u64 {
            spin(self.0)
        }
    }
    let calib = 10_000_000;
    let best = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            black_box(spin(calib));
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    let per_ms = (calib as f64 / (best * 1e3)) as u64;
    let driver2 = MwDriver::new(2, 1);
    c.bench_function("driver_dispatch_all_2_spin_jobs", |b| {
        // One batch per sample, so the median is a per-batch p50 rather
        // than a mean over batches that did and did not stack.
        b.iter_batched(
            || vec![SpinTask(per_ms), SpinTask(per_ms)],
            |tasks| driver2.dispatch_all(tasks),
            BatchSize::PerIteration,
        )
    });

    let driver_ns = MwDriver::new(2, 6);
    struct ClientTask;
    impl MwTask for ClientTask {
        type Output = usize;
        fn execute(self, ctx: &WorkerCtx) -> usize {
            ctx.run_clients(|i| i).into_iter().sum()
        }
    }
    c.bench_function("server_client_fanout_ns6", |b| {
        b.iter(|| black_box(driver_ns.dispatch_all(vec![ClientTask])))
    });

    // One sampling round through the threaded backend's dispatch loop: 14
    // extensions of noisy 2-d Rosenbrock, the mean round size of the
    // multi-run service's merged dispatches, on two workers. Nearly all of
    // it is dispatch: the extensions themselves take about a microsecond.
    let backend = ThreadedBackend::with_options(
        2,
        FaultPlan::none(),
        RetryPolicy::default(),
        default_respawn_budget(2),
        None,
    );
    let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(10.0));
    let jobs: Vec<_> = (0..14)
        .map(|i| StreamJob {
            slot: i,
            dt: 1.0,
            stream: obj.open(&[0.1 * i as f64, -0.5], 7 + i as u64),
        })
        .collect();
    c.bench_function("threaded_round_14_jobs", |b| {
        b.iter(|| black_box(backend.extend_batch(jobs.clone())))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_mw
);
criterion_main!(benches);
