//! The thread-backed sampling backend: batches of stream extensions fan out
//! over [`MwPool`] workers, supervised against worker loss.
//!
//! This implements the `stoch-eval` [`SamplingBackend`] seam with real
//! threads — the in-process analogue of the paper's master–worker
//! deployment (§3.1): the master (the optimizer engine) hands a round of
//! extensions to the backend, each extension runs on a worker, and the
//! master blocks until the whole round is back. Determinism is inherited
//! from the seam's contract: every stream owns its RNG, so the worker
//! schedule cannot change any result, and results are collected in
//! submission order so floating-point accounting sums identically to the
//! serial backend.
//!
//! The round itself runs in the dispatch loop shared with the process
//! backend (`crate::dispatch`): retry from master-side stream clones,
//! per-attempt deadlines, straggler hedging (`NSX_HEDGE`, DESIGN.md §16)
//! and degradation to inline execution once the pool has failed
//! (DESIGN.md §9). This file supplies the thread side of that loop: how a
//! job ships to an [`MwPool`] worker, and how the master waits on the
//! pool's completion notifier.
//!
//! Faults come from the `NSX_FAULTS` environment variable (see
//! [`FaultPlan`]) for chaos testing, or programmatically via
//! [`ThreadedBackend::with_options`].

use crate::dispatch::{Dispatcher, LegId, Link, Outcome, Shipped};
use crate::faults::FaultPlan;
use crate::pool::{default_respawn_budget, JobHandle, MwPool, RetryPolicy, WorkerLost};
use crate::resilience::HedgePolicy;
use obs::MetricsRegistry;
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use stoch_eval::backend::{SamplingBackend, StreamJob};
use stoch_eval::objective::SampleStream;

/// Ship one extension job to the pool: the stream state moves to a worker,
/// extends there, and is handed back through the job handle.
pub(crate) fn ship_extend<S: SampleStream + 'static>(
    pool: &MwPool,
    mut job: StreamJob<S>,
) -> JobHandle<StreamJob<S>> {
    pool.submit(move |_worker| {
        job.stream.extend(job.dt);
        job
    })
}

/// The thread link: a ticket is the job's result handle, and the master
/// sleeps on the pool's completion-generation condvar.
impl<S: SampleStream + 'static> Link<S> for MwPool {
    type Ticket = JobHandle<StreamJob<S>>;

    const DEFAULT_TIMEOUT: Option<Duration> = None;

    fn ship(&self, jobs: &[StreamJob<S>]) -> Vec<Shipped<Self::Ticket>> {
        let ship = |job: &StreamJob<S>| Shipped::Ticket(ship_extend(self, job.clone()));
        jobs.iter().map(ship).collect()
    }

    fn wait(
        &self,
        legs: &[(LegId, &Self::Ticket)],
        max_wait: Duration,
    ) -> Vec<(LegId, Outcome<S>)> {
        // Snapshot the completion generation BEFORE scanning: a result that
        // lands mid-scan bumps past this snapshot, so the wait returns
        // immediately instead of sleeping through the wakeup.
        let seen = self.completion_generation();
        let scan = || -> Vec<(LegId, Outcome<S>)> {
            legs.iter()
                .filter_map(|(id, handle)| match handle.try_recv() {
                    Ok(Some(job)) => Some((*id, Outcome::Done(job.stream))),
                    Ok(None) => None,
                    Err(WorkerLost) => Some((*id, Outcome::Lost)),
                })
                .collect()
        };
        let ready = scan();
        if !ready.is_empty() || max_wait.is_zero() {
            return ready;
        }
        self.wait_for_completion(seen, max_wait);
        scan()
    }

    fn forget(&self, ticket: Self::Ticket) {
        // A dropped handle discards the straggling result.
        drop(ticket);
    }

    fn supervise(&self) {
        MwPool::supervise(self);
    }

    fn is_failed(&self) -> bool {
        MwPool::is_failed(self)
    }

    fn busy_pct(&self) -> Option<u64> {
        let busy: f64 = self.busy_seconds().iter().sum();
        let idle: f64 = self.idle_seconds().iter().sum();
        (busy + idle > 0.0).then(|| (100.0 * busy / (busy + idle)) as u64)
    }
}

/// A [`SamplingBackend`] that runs every job of a batch on an [`MwPool`]
/// worker and blocks until the round completes, surviving worker loss (see
/// the module docs for the fault model).
pub struct ThreadedBackend {
    pool: Arc<MwPool>,
    dispatch: Dispatcher,
}

/// `NSX_WORKERS`, parsed for both backends: `None` when unset. Panics
/// naming the knob on anything but an integer ≥ 1.
pub(crate) fn workers_setting() -> Option<usize> {
    workers_from_setting(std::env::var("NSX_WORKERS").ok().as_deref())
}

/// [`workers_setting`] over an already-read value.
fn workers_from_setting(value: Option<&str>) -> Option<usize> {
    value.map(|v| {
        v.parse()
            .ok()
            .filter(|&n: &usize| n >= 1)
            .unwrap_or_else(|| panic!("invalid NSX_WORKERS='{v}': expected an integer >= 1"))
    })
}

/// The machine's available hardware parallelism (1 when unknown).
pub(crate) fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Worker count for the shared pool: `NSX_WORKERS` if set, otherwise the
/// machine's available hardware parallelism.
pub fn default_workers() -> usize {
    workers_setting().unwrap_or_else(hardware_threads)
}

static SHARED: OnceLock<Arc<ThreadedBackend>> = OnceLock::new();

impl ThreadedBackend {
    /// Spawn a dedicated supervised pool of `n_workers` threads for this
    /// backend, with fault injection taken from the `NSX_FAULTS`
    /// environment variable (none when unset).
    pub fn new(n_workers: usize) -> Self {
        Self::with_options(
            n_workers,
            FaultPlan::from_env(),
            RetryPolicy::default(),
            default_respawn_budget(n_workers),
            None,
        )
    }

    /// Run batches over an existing pool (no env fault injection — the pool
    /// was configured by its owner).
    pub fn over(pool: Arc<MwPool>) -> Self {
        ThreadedBackend {
            pool,
            dispatch: Dispatcher::new(RetryPolicy::default(), None),
        }
    }

    /// Like [`ThreadedBackend::new`], with per-batch run accounting
    /// mirrored into `registry` (`mw.backend.*`: batches, jobs, fan-out
    /// latency, batch-size high-water mark, worker busy fraction, and the
    /// fault-tolerance counters).
    pub fn with_metrics(n_workers: usize, registry: &MetricsRegistry) -> Self {
        Self::with_options(
            n_workers,
            FaultPlan::from_env(),
            RetryPolicy::default(),
            default_respawn_budget(n_workers),
            Some(registry),
        )
    }

    /// Full-control constructor: worker count, programmatic fault plan,
    /// retry policy, worker-respawn budget, and optional metrics registry.
    pub fn with_options(
        n_workers: usize,
        faults: FaultPlan,
        retry: RetryPolicy,
        respawn_budget: u64,
        registry: Option<&MetricsRegistry>,
    ) -> Self {
        ThreadedBackend {
            pool: Arc::new(MwPool::with_options(
                n_workers,
                faults,
                respawn_budget,
                registry,
            )),
            dispatch: Dispatcher::new(retry, registry),
        }
    }

    /// Replace the hedging policy (builder style). The environment default
    /// (`NSX_HEDGE`, off when unset) is read at construction; exhibits and
    /// tests use this to force a specific policy programmatically.
    pub fn with_hedge(mut self, hedge: HedgePolicy) -> Self {
        self.dispatch.set_hedge(hedge);
        self
    }

    /// The active hedging policy.
    pub fn hedge_policy(&self) -> HedgePolicy {
        self.dispatch.hedge_policy()
    }

    /// The process-wide shared backend, sized by [`default_workers`] on
    /// first use. Engines constructed with an auto-sized threaded backend
    /// all share this pool, so repeated runs do not respawn threads.
    pub fn shared() -> Arc<ThreadedBackend> {
        Arc::clone(SHARED.get_or_init(|| Arc::new(ThreadedBackend::new(default_workers()))))
    }

    /// The underlying worker pool.
    pub fn pool(&self) -> &Arc<MwPool> {
        &self.pool
    }

    /// The backend's retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.dispatch.retry_policy()
    }
}

impl<S: SampleStream + 'static> SamplingBackend<S> for ThreadedBackend {
    fn extend_batch(&self, jobs: Vec<StreamJob<S>>) -> Vec<StreamJob<S>> {
        self.dispatch.extend_batch(&*self.pool, jobs)
    }

    fn name(&self) -> &'static str {
        "threaded"
    }

    fn degraded(&self) -> bool {
        self.dispatch.degraded() || self.pool.is_failed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Backend behaviour is covered, for threads and processes alike, by the
    // conformance suite in `dispatch.rs`.

    #[test]
    fn workers_setting_is_none_when_unset_and_parsed_when_set() {
        assert_eq!(workers_from_setting(None), None);
        assert_eq!(workers_from_setting(Some("3")), Some(3));
    }

    #[test]
    #[should_panic(expected = "invalid NSX_WORKERS='abc': expected an integer >= 1")]
    fn malformed_workers_setting_panics_naming_the_knob_and_value() {
        workers_from_setting(Some("abc"));
    }

    #[test]
    #[should_panic(expected = "invalid NSX_WORKERS='0': expected an integer >= 1")]
    fn zero_workers_setting_panics_instead_of_meaning_all_cores() {
        workers_from_setting(Some("0"));
    }
}
