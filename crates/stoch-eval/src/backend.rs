//! Pluggable sampling backends: how a batch of stream extensions executes.
//!
//! Optimizers describe *what* to sample — a set of streams, each with its own
//! extension duration — and a [`SamplingBackend`] decides *how* the batch
//! runs: inline on the calling thread ([`SerialBackend`]), fanned out over a
//! worker pool (`mw-framework`'s `ThreadedBackend`), or, in the future,
//! sharded across machines. This is the seam between the paper's master
//! (simplex logic, virtual-time accounting) and its workers (sampling
//! compute), §3.1.
//!
//! # Determinism contract
//!
//! Every backend must satisfy two rules, which together make results
//! bit-identical across backends and schedules:
//!
//! 1. **Jobs are independent.** Each [`StreamJob`] owns its stream, and each
//!    stream owns its RNG (per-stream seeds from [`SeedSequence`]); no job
//!    reads shared mutable state. Any execution order therefore produces
//!    the same per-stream results.
//! 2. **Submission order is preserved.** `extend_batch` returns the jobs in
//!    the order they were submitted, regardless of completion order, so the
//!    caller's clock charges and floating-point accumulations
//!    (`total_sampling`) sum in a fixed order.

use crate::clock::VirtualClock;
use crate::objective::{SampleStream, StochasticObjective};
use crate::rng::SeedSequence;

/// One unit of sampling work: extend `stream` by virtual duration `dt`.
///
/// The job owns the stream while it is in flight (it may be shipped to a
/// worker thread); the backend hands it back in the response.
#[derive(Clone)]
pub struct StreamJob<S> {
    /// Caller-side slot index the stream came from (returned unchanged).
    pub slot: usize,
    /// Virtual duration to extend by.
    pub dt: f64,
    /// The owned stream state.
    pub stream: S,
}

/// Executes batches of stream extensions. See the module docs for the
/// determinism contract every implementation must uphold.
pub trait SamplingBackend<S>: Send + Sync {
    /// Extend every job's stream by its `dt` and return the jobs in
    /// submission order.
    fn extend_batch(&self, jobs: Vec<StreamJob<S>>) -> Vec<StreamJob<S>>;

    /// Short label for reports (`"serial"`, `"threaded"`).
    fn name(&self) -> &'static str;

    /// Whether the backend has permanently lost its parallel capacity and is
    /// (or will be) executing work inline on the calling thread — graceful
    /// degradation rather than an error. Inline backends never degrade;
    /// pool-backed backends report `true` once their worker-respawn budget is
    /// exhausted. Results are unaffected (the determinism contract holds
    /// through degradation); callers may surface the event in run reports.
    fn degraded(&self) -> bool {
        false
    }

    /// Unread: nothing consults this token and every backend in the
    /// workspace returns the default `None`. It is kept only because
    /// perfbench's timing wrappers forward it.
    fn pool_token(&self) -> Option<usize> {
        None
    }
}

/// The default backend: extends every stream inline on the calling thread.
///
/// Bit-identical to the pre-seam engine behaviour; virtual-time accounting
/// still credits concurrent rounds at the max of the individual extensions,
/// it is only the *compute* that runs serially.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialBackend;

impl<S: SampleStream> SamplingBackend<S> for SerialBackend {
    fn extend_batch(&self, mut jobs: Vec<StreamJob<S>>) -> Vec<StreamJob<S>> {
        for job in &mut jobs {
            job.stream.extend(job.dt);
        }
        jobs
    }

    fn name(&self) -> &'static str {
        "serial"
    }
}

/// Open a stream at each point, extend them all for `dt` as one concurrent
/// round on `backend`, and return the estimate values (in point order).
///
/// This is the shared evaluation round used by the non-simplex optimizers
/// (PSO swarms, SPSA probe pairs, annealing/random-search candidates):
/// streams are opened in point order (one seed each, so the RNG draw
/// sequence is independent of the backend), the batch is dispatched, and
/// the clock/`total` accounting is charged in submission order.
pub fn eval_round<F: StochasticObjective>(
    backend: &dyn SamplingBackend<F::Stream>,
    objective: &F,
    points: &[Vec<f64>],
    dt: f64,
    seeds: &mut SeedSequence,
    clock: &mut VirtualClock,
    total: &mut f64,
) -> Vec<f64> {
    let jobs: Vec<StreamJob<F::Stream>> = points
        .iter()
        .enumerate()
        .map(|(slot, p)| StreamJob {
            slot,
            dt,
            stream: objective.open(p, seeds.next_seed()),
        })
        .collect();
    clock.begin_round();
    let done = backend.extend_batch(jobs);
    let mut values = Vec::with_capacity(done.len());
    for job in &done {
        clock.charge(job.dt);
        *total += job.dt;
        values.push(job.stream.estimate().value);
    }
    clock.end_round();
    values
}

/// Extend every stream in `streams` by its paired entry of `dts` as one
/// concurrent round on `backend`, charging the clock and `total` in stream
/// order.
///
/// For optimizers that keep long-lived stream collections outside the
/// engine (e.g. the Anderson structure search): the streams are drained
/// into jobs, dispatched, and written back in place.
pub fn extend_all_round<S: SampleStream>(
    backend: &dyn SamplingBackend<S>,
    streams: &mut Vec<S>,
    dts: &[f64],
    clock: &mut VirtualClock,
    total: &mut f64,
) {
    assert_eq!(streams.len(), dts.len());
    let jobs: Vec<StreamJob<S>> = streams
        .drain(..)
        .zip(dts)
        .enumerate()
        .map(|(slot, (stream, &dt))| StreamJob { slot, dt, stream })
        .collect();
    clock.begin_round();
    for job in backend.extend_batch(jobs) {
        clock.charge(job.dt);
        *total += job.dt;
        streams.push(job.stream);
    }
    clock.end_round();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TimeMode;
    use crate::functions::Sphere;
    use crate::noise::ConstantNoise;
    use crate::sampler::Noisy;

    #[test]
    fn serial_backend_extends_in_place() {
        let obj = Noisy::new(Sphere::new(2), ConstantNoise(1.0));
        let jobs = vec![
            StreamJob {
                slot: 0,
                dt: 2.0,
                stream: obj.open(&[0.0, 0.0], 1),
            },
            StreamJob {
                slot: 1,
                dt: 3.0,
                stream: obj.open(&[1.0, 1.0], 2),
            },
        ];
        let done = SerialBackend.extend_batch(jobs);
        assert_eq!(done[0].slot, 0);
        assert_eq!(done[1].slot, 1);
        assert_eq!(done[0].stream.estimate().time, 2.0);
        assert_eq!(done[1].stream.estimate().time, 3.0);
    }

    #[test]
    fn eval_round_matches_inline_loop() {
        // The helper must reproduce the exact values and accounting of the
        // historical open/extend/charge loop.
        let obj = Noisy::new(Sphere::new(2), ConstantNoise(2.0));
        let points = vec![vec![0.5, 0.5], vec![-1.0, 2.0], vec![3.0, 0.0]];
        let dt = 1.5;

        let mut seeds_a = SeedSequence::new(9);
        let mut clock_a = VirtualClock::new(TimeMode::Parallel);
        let mut total_a = 0.0;
        let expected: Vec<f64> = {
            clock_a.begin_round();
            let vals = points
                .iter()
                .map(|p| {
                    let mut s = obj.open(p, seeds_a.next_seed());
                    s.extend(dt);
                    clock_a.charge(dt);
                    total_a += dt;
                    s.estimate().value
                })
                .collect();
            clock_a.end_round();
            vals
        };

        let mut seeds_b = SeedSequence::new(9);
        let mut clock_b = VirtualClock::new(TimeMode::Parallel);
        let mut total_b = 0.0;
        let got = eval_round(
            &SerialBackend,
            &obj,
            &points,
            dt,
            &mut seeds_b,
            &mut clock_b,
            &mut total_b,
        );
        assert_eq!(got, expected);
        assert_eq!(clock_b.elapsed(), clock_a.elapsed());
        assert_eq!(total_b, total_a);
    }

    #[test]
    fn extend_all_round_preserves_order_and_accounts() {
        let obj = Noisy::new(Sphere::new(2), ConstantNoise(1.0));
        let mut streams = vec![obj.open(&[0.0, 0.0], 5), obj.open(&[1.0, 0.0], 6)];
        let mut clock = VirtualClock::new(TimeMode::Parallel);
        let mut total = 0.0;
        extend_all_round(
            &SerialBackend,
            &mut streams,
            &[1.0, 4.0],
            &mut clock,
            &mut total,
        );
        assert_eq!(streams.len(), 2);
        assert_eq!(streams[0].estimate().time, 1.0);
        assert_eq!(streams[1].estimate().time, 4.0);
        // Parallel round: max(1, 4); total sampling: sum.
        assert_eq!(clock.elapsed(), 4.0);
        assert_eq!(total, 5.0);
    }
}
