//! Criterion micro-benchmark for the MW framework: one sampling round
//! through the threaded backend — the in-process analogue of the paper's
//! master↔worker communication overhead (§3.4's "minor degradation...
//! attributed to the I/O").

use criterion::{criterion_group, criterion_main, Criterion};
use mw_framework::{default_respawn_budget, FaultPlan, RetryPolicy, ThreadedBackend};
use std::hint::black_box;
use stoch_eval::{
    ConstantNoise, Noisy, Rosenbrock, SamplingBackend, StochasticObjective, StreamJob,
};

fn bench_mw(c: &mut Criterion) {
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
