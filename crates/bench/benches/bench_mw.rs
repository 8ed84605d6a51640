//! Criterion micro-benchmarks for the MW framework: round-trip dispatch
//! latency and batched fan-out throughput — the in-process analogue of the
//! paper's master↔worker communication overhead (§3.4's "minor
//! degradation... attributed to the I/O").

use criterion::{criterion_group, criterion_main, Criterion};
use mw_framework::{
    default_respawn_budget, FaultPlan, MwDriver, MwPool, MwTask, RetryPolicy, ThreadedBackend,
    WorkerCtx,
};
use std::hint::black_box;
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
