//! Criterion micro-benchmarks for the simplex-algorithm kernels: full short
//! optimizations of each method under identical noise, one decision step
//! of the simplex layer, plus the raw geometry operations.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use noisy_simplex::geometry::{centroid_excluding, diameter, order, reflect};
use noisy_simplex::prelude::*;
use std::hint::black_box;
use std::sync::Arc;
use stoch_eval::backend::SerialBackend;
use stoch_eval::functions::Rosenbrock;
use stoch_eval::noise::ConstantNoise;
use stoch_eval::sampler::Noisy;

fn short_term() -> Termination {
    Termination {
        tolerance: Some(1e-4),
        max_time: Some(2e3),
        max_iterations: Some(200),
    }
}

fn bench_methods(c: &mut Criterion) {
    let obj = Noisy::new(Rosenbrock::new(4), ConstantNoise(10.0));
    let mut g = c.benchmark_group("optimize_rosenbrock4_noise10");
    let methods: [(&str, SimplexMethod); 5] = [
        ("det", SimplexMethod::Det(Det::new())),
        ("mn", SimplexMethod::Mn(MaxNoise::with_k(2.0))),
        ("pc", SimplexMethod::Pc(PointComparison::new())),
        ("pcmn", SimplexMethod::PcMn(PcMn::new())),
        (
            "anderson",
            SimplexMethod::Anderson(AndersonNm::with_k1(1024.0)),
        ),
    ];
    for (name, m) in methods {
        g.bench_function(name, |b| {
            let mut seed = 0u64;
            b.iter_batched(
                || {
                    seed += 1;
                    (init::random_uniform(4, -5.0, 5.0, seed), seed)
                },
                |(init, s)| black_box(m.run(&obj, init, short_term(), TimeMode::Parallel, s)),
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

/// One MN `RunSession::step` on `SerialBackend` (Rosenbrock, σ0 = 100):
/// the decision layer plus the stream extensions of its rounds. A run that
/// finishes is replaced by a fresh one, so a run's set-up is spread over its
/// steps (about 50 at d = 4, at most 300 at d = 50).
fn bench_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("step");
    for (d, max_iterations) in [(4usize, 100_000u64), (50, 300)] {
        let obj = Noisy::gaussian(Rosenbrock::new(d), ConstantNoise(100.0));
        let term = Termination {
            tolerance: Some(1e-6),
            max_time: Some(1e5),
            max_iterations: Some(max_iterations),
        };
        g.bench_function(format!("mn_d{d}"), |b| {
            let mut seed = 0u64;
            let mut fresh = || {
                seed += 1;
                RunSession::with_backend(
                    &obj,
                    init::random_uniform(d, -6.0, 3.0, seed),
                    SimplexConfig::default(),
                    term,
                    TimeMode::Parallel,
                    seed,
                    Driver::Mn(MnParams { k: 2.0 }),
                    Arc::new(SerialBackend),
                )
            };
            let mut session = fresh();
            b.iter(|| {
                if session.is_finished() {
                    session = fresh();
                }
                session.step()
            })
        });
    }
    g.finish();
}

fn bench_geometry(c: &mut Criterion) {
    let mut g = c.benchmark_group("geometry");
    for d in [4usize, 20, 100] {
        let pts: Vec<Vec<f64>> = (0..=d)
            .map(|i| (0..d).map(|j| ((i * 31 + j * 7) % 13) as f64).collect())
            .collect();
        let values: Vec<f64> = (0..=d).map(|i| (i as f64).sin()).collect();
        g.bench_function(format!("centroid_d{d}"), |b| {
            b.iter(|| black_box(centroid_excluding(black_box(&pts), 0)))
        });
        g.bench_function(format!("reflect_d{d}"), |b| {
            let cent = centroid_excluding(&pts, 0);
            b.iter(|| black_box(reflect(black_box(&cent), black_box(&pts[0]), 1.0)))
        });
        g.bench_function(format!("diameter_d{d}"), |b| {
            b.iter(|| black_box(diameter(black_box(&pts))))
        });
        g.bench_function(format!("order_d{d}"), |b| {
            b.iter(|| black_box(order(black_box(&values))))
        });
    }
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_methods, bench_step, bench_geometry
);
criterion_main!(benches);
