//! Criterion micro-benchmark for the MW framework: one sampling round
//! through the threaded backend — the in-process analogue of the paper's
//! master↔worker communication overhead (§3.4's "minor degradation...
//! attributed to the I/O").

use criterion::{criterion_group, criterion_main, Criterion};
use mw_framework::{default_respawn_budget, FaultPlan, HedgePolicy, RetryPolicy, ThreadedBackend};
use std::hint::black_box;
use std::time::Duration;
use stoch_eval::{
    ConstantNoise, Noisy, Rosenbrock, SamplingBackend, StochasticObjective, StreamJob,
};

/// A two-worker threaded backend with `retry`, hedging off.
fn two_workers(retry: RetryPolicy) -> ThreadedBackend {
    ThreadedBackend::with_options(2, FaultPlan::none(), retry, default_respawn_budget(2), None)
        .with_hedge(HedgePolicy::default())
}

fn bench_mw(c: &mut Criterion) {
    // One sampling round through the threaded backend's dispatch loop: 14
    // extensions of noisy 2-d Rosenbrock, the mean round size of the
    // multi-run service's merged dispatches, on two workers. Nearly all of
    // it is dispatch: the extensions themselves take about a microsecond.
    let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(10.0));
    let jobs: Vec<_> = (0..14)
        .map(|i| StreamJob {
            slot: i,
            dt: 1.0,
            stream: obj.open(&[0.1 * i as f64, -0.5], 7 + i as u64),
        })
        .collect();
    // The default backend against the same round kept on the workers.
    // After its first round ships and is measured, the default backend
    // finds 14 such cheap jobs not worth shipping, so
    // `threaded_round_14_jobs` times the inline path (DESIGN.md §8). An
    // attempt deadline (one that never fires) keeps every round of the
    // twin on the pool, so `_workers_only` times a pooled round.
    let default = two_workers(RetryPolicy::default());
    let workers_only = two_workers(RetryPolicy {
        timeout: Some(Duration::from_secs(60)),
        ..RetryPolicy::default()
    });
    for (name, backend) in [
        ("threaded_round_14_jobs", &default),
        ("threaded_round_14_jobs_workers_only", &workers_only),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| black_box(backend.extend_batch(jobs.clone())))
        });
    }
}

// 100 samples, where the other benches take 10 or 20: two cases a few
// microseconds apart need that many for their medians to settle on a
// shared host.
criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(100);
    targets = bench_mw
);
criterion_main!(benches);
