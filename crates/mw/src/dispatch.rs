//! The one master loop behind both worker backends (DESIGN.md §8, §9, §16).
//!
//! The paper's MW master hands each round to its workers and waits for the
//! whole round, wherever those workers run. [`Dispatcher::extend_batch`] is
//! that loop, written once over a small [`Link`] trait with two
//! implementations: [`MwPool`](crate::pool::MwPool) (threads, in
//! `backend.rs`) and [`ProcessPool`](crate::transport::ProcessPool)
//! (sockets, in `transport/process.rs`). The loop owns everything the two
//! share:
//!
//! * the pending table and its master-side backups — every shipped stream
//!   keeps a clone here, and because the clone carries the RNG state, a
//!   re-issued or inline extension reproduces the lost one bit for bit;
//! * attempt counting and [`RetryPolicy`] backoff;
//! * per-attempt deadlines ([`RetryPolicy::timeout`], or the link's
//!   [`Link::DEFAULT_TIMEOUT`] when unset);
//! * straggler hedging ([`HedgePolicy`] over a [`P2Quantile`] of completed
//!   latencies): a job in flight past the threshold is shipped a second
//!   time from its backup, the first answer wins, and a lost primary
//!   promotes its hedge without spending an attempt;
//! * degradation to inline execution when the link's pool has failed;
//! * the `mw.retry.*`, `mw.hedge.*` and `mw.backend.*` counters.
//!
//! Each link keeps its own wait primitive (the completion-generation
//! condvar for threads, `collect` for sockets) and its own supervision,
//! heartbeats and respawn backoff.

use crate::pool::RetryPolicy;
use crate::resilience::{HedgePolicy, P2Quantile};
use obs::{Counter, Gauge, MetricsRegistry};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use stoch_eval::backend::StreamJob;
use stoch_eval::objective::SampleStream;

/// Upper bound on one wait while a batch is in flight. Completions wake the
/// loop as they happen, so this only bounds how long a *silent* stall (a
/// wedged-but-alive worker) can defer a supervision pass. It is not a
/// completion-latency quantum.
const SUPERVISION_FALLBACK: Duration = Duration::from_millis(100);

/// What a link did with one job handed to [`Link::ship`].
pub(crate) enum Shipped<T> {
    /// In flight; the ticket identifies this copy on the link.
    Ticket(T),
    /// No worker could take the job: it runs inline and the run degrades.
    Unavailable,
    /// The link can never run this job (for example a stream with no wire
    /// identity): it runs inline. A capability limit, not a fault.
    Unsupported,
}

/// What became of one shipped copy, as reported by [`Link::wait`].
pub(crate) enum Outcome<S> {
    /// The copy answered with its extended stream.
    Done(S),
    /// The copy will never answer: its worker died or its result was
    /// unusable. Re-dispatched from the backup.
    Lost,
    /// The worker refused the job; it runs inline, without a retry.
    Unsupported,
}

/// Names one shipped copy of a job: its batch position and a per-batch copy
/// number. Links hand it back unchanged with the copy's [`Outcome`].
#[derive(Clone, Copy)]
pub(crate) struct LegId {
    idx: usize,
    leg: u32,
}

/// A pool the dispatch loop can ship extension jobs to.
pub(crate) trait Link<S> {
    /// A handle on one shipped copy of a job.
    type Ticket;

    /// Per-attempt deadline when [`RetryPolicy::timeout`] is unset. A wire
    /// cannot tell a lost frame from a slow worker, so the socket link
    /// supplies one; threads detect loss by disconnection and need none.
    const DEFAULT_TIMEOUT: Option<Duration>;

    /// Ship one extension per job, a whole round at once: one
    /// [`Shipped`] per job, in order. The jobs stay with the caller as the
    /// master-side backups.
    fn ship(&self, jobs: &[StreamJob<S>]) -> Vec<Shipped<Self::Ticket>>;

    /// Outcomes for any of `legs`, waiting up to `max_wait` for the first
    /// one. Returns early as soon as anything resolved; may return empty.
    fn wait(&self, legs: &[(LegId, &Self::Ticket)], max_wait: Duration)
        -> Vec<(LegId, Outcome<S>)>;

    /// Stop waiting for a copy; a late answer is discarded.
    fn forget(&self, ticket: Self::Ticket);

    /// One supervision pass (reap and respawn dead workers).
    fn supervise(&self);

    /// True once the pool can never run a job again.
    fn is_failed(&self) -> bool;

    /// Worker busy share in percent, where the pool measures it.
    fn busy_pct(&self) -> Option<u64> {
        None
    }
}

/// Registry handles recorded by the loop. Metric names:
/// `mw.backend.{batches,jobs,fanout_nanos,batch_size_hwm,busy_pct,degraded}`,
/// `mw.retry.{attempts,timeouts}` and `mw.hedge.{launched,wins}`.
struct DispatchObs {
    batches: Arc<Counter>,
    jobs: Arc<Counter>,
    fanout_nanos: Arc<Counter>,
    batch_size_hwm: Arc<Gauge>,
    busy_pct: Arc<Gauge>,
    degraded: Arc<Counter>,
    retry_attempts: Arc<Counter>,
    retry_timeouts: Arc<Counter>,
    hedge_launched: Arc<Counter>,
    hedge_wins: Arc<Counter>,
}

impl DispatchObs {
    fn register(registry: &MetricsRegistry) -> Self {
        DispatchObs {
            batches: registry.counter("mw.backend.batches"),
            jobs: registry.counter("mw.backend.jobs"),
            fanout_nanos: registry.counter("mw.backend.fanout_nanos"),
            batch_size_hwm: registry.gauge("mw.backend.batch_size_hwm"),
            busy_pct: registry.gauge("mw.backend.busy_pct"),
            degraded: registry.counter("mw.backend.degraded"),
            retry_attempts: registry.counter("mw.retry.attempts"),
            retry_timeouts: registry.counter("mw.retry.timeouts"),
            hedge_launched: registry.counter("mw.hedge.launched"),
            hedge_wins: registry.counter("mw.hedge.wins"),
        }
    }
}

/// One shipped copy of a job.
struct Leg<T> {
    id: u32,
    ticket: T,
    shipped: Instant,
}

/// One job in flight.
struct Pending<S, T> {
    /// The master-side backup: what to re-issue, or to finish inline.
    job: StreamJob<S>,
    attempt: u32,
    /// The attempt's copy; its ship time is the attempt clock.
    primary: Leg<T>,
    /// A speculative second copy, launched when the primary overran the
    /// hedge threshold. Both copies extend identical RNG state, so
    /// whichever answers first is THE result.
    hedge: Option<Leg<T>>,
}

impl<S, T> Pending<S, T> {
    /// Stop waiting for both copies and hand back the backup.
    fn abandon<L: Link<S, Ticket = T>>(self, link: &L) -> (StreamJob<S>, u32) {
        link.forget(self.primary.ticket);
        if let Some(h) = self.hedge {
            link.forget(h.ticket);
        }
        (self.job, self.attempt)
    }
}

/// The state of one `extend_batch` call.
struct Batch<S, T> {
    /// Indexed by batch position; `None` once the job has its result.
    pending: Vec<Option<Pending<S, T>>>,
    out: Vec<Option<StreamJob<S>>>,
    live: usize,
    legs_shipped: u32,
}

impl<S: SampleStream, T> Batch<S, T> {
    fn leg(&mut self, ticket: T) -> Leg<T> {
        self.legs_shipped += 1;
        Leg {
            id: self.legs_shipped,
            ticket,
            shipped: Instant::now(),
        }
    }

    fn put(&mut self, idx: usize, p: Pending<S, T>) {
        self.pending[idx] = Some(p);
        self.live += 1;
    }

    fn take(&mut self, idx: usize) -> Option<Pending<S, T>> {
        let p = self.pending[idx].take();
        if p.is_some() {
            self.live -= 1;
        }
        p
    }

    fn finish_inline(&mut self, idx: usize, job: StreamJob<S>) {
        self.out[idx] = Some(extend_inline(job));
    }

    /// Every copy in flight, primaries before their hedges.
    fn legs(&self) -> Vec<(LegId, &T)> {
        let mut legs = Vec::with_capacity(self.live);
        for (idx, p) in self.pending.iter().enumerate() {
            let Some(p) = p else { continue };
            for leg in std::iter::once(&p.primary).chain(&p.hedge) {
                legs.push((LegId { idx, leg: leg.id }, &leg.ticket));
            }
        }
        legs
    }

    /// How long the loop may sleep: until the nearest attempt deadline or
    /// hedge launch, capped by the supervision fallback.
    fn next_wake(&self, limit: Option<Duration>, hedge_after: Option<Duration>) -> Duration {
        let now = Instant::now();
        let mut wait = SUPERVISION_FALLBACK;
        for p in self.pending.iter().flatten() {
            let age = now.saturating_duration_since(p.primary.shipped);
            if let Some(limit) = limit {
                wait = wait.min(limit.saturating_sub(age));
            }
            if let (None, Some(after)) = (&p.hedge, hedge_after) {
                // A hedge already due that no worker took is retried at the
                // next wake, not spun on.
                if age < after {
                    wait = wait.min(after - age);
                }
            }
        }
        wait
    }
}

/// Ship one copy of `job`, a retry or a hedge, as a round of one.
fn ship_one<S, L: Link<S>>(link: &L, job: &StreamJob<S>) -> Shipped<L::Ticket> {
    let shipped = link.ship(std::slice::from_ref(job)).pop();
    shipped.unwrap_or(Shipped::Unavailable)
}

/// Extend `job` on the calling thread.
fn extend_inline<S: SampleStream>(mut job: StreamJob<S>) -> StreamJob<S> {
    job.stream.extend(job.dt);
    job
}

/// The dispatch loop's policies and state, one per backend.
pub(crate) struct Dispatcher {
    retry: RetryPolicy,
    /// Straggler-hedging policy (`NSX_HEDGE`, DESIGN.md §16). Off by
    /// default: hedging never changes results, only tail latency.
    hedge: HedgePolicy,
    /// Online estimate of the hedge quantile over completed job latencies.
    latency: Mutex<P2Quantile>,
    degraded: AtomicBool,
    obs: Option<DispatchObs>,
}

impl Dispatcher {
    /// A loop with `retry`, hedging from `NSX_HEDGE`, and its counters in
    /// `registry` when given.
    pub(crate) fn new(retry: RetryPolicy, registry: Option<&MetricsRegistry>) -> Self {
        let hedge = HedgePolicy::from_env();
        Dispatcher {
            retry,
            hedge,
            latency: Mutex::new(P2Quantile::new(hedge.quantile)),
            degraded: AtomicBool::new(false),
            obs: registry.map(DispatchObs::register),
        }
    }

    /// Replace the hedging policy, restarting the latency estimate.
    pub(crate) fn set_hedge(&mut self, hedge: HedgePolicy) {
        self.hedge = hedge;
        self.latency = Mutex::new(P2Quantile::new(hedge.quantile));
    }

    pub(crate) fn hedge_policy(&self) -> HedgePolicy {
        self.hedge
    }

    pub(crate) fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// True once this loop has degraded to inline execution.
    pub(crate) fn degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    /// Record the transition into degraded (inline) execution exactly once.
    fn note_degraded(&self) {
        if !self.degraded.swap(true, Ordering::SeqCst) {
            if let Some(o) = &self.obs {
                o.degraded.inc();
            }
        }
    }

    fn count(&self, counter: impl Fn(&DispatchObs) -> &Arc<Counter>) {
        if let Some(o) = &self.obs {
            counter(o).inc();
        }
    }

    fn estimator(&self) -> std::sync::MutexGuard<'_, P2Quantile> {
        self.latency.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Feed a completed copy's ship-to-answer latency to the hedge
    /// estimator (no-op with hedging off).
    fn observe_latency(&self, d: Duration) {
        if self.hedge.enabled {
            self.estimator().observe(d.as_secs_f64());
        }
    }

    /// The in-flight age beyond which a job should be hedged right now;
    /// `None` while hedging is off or the estimator is warming up.
    fn hedge_after(&self) -> Option<Duration> {
        if !self.hedge.enabled {
            return None;
        }
        let est = self.estimator();
        self.hedge.hedge_after(est.count(), est.estimate())
    }

    /// Run one round on `link` and return it in submission order, bit for
    /// bit what the serial backend would return.
    pub(crate) fn extend_batch<S, L>(&self, link: &L, jobs: Vec<StreamJob<S>>) -> Vec<StreamJob<S>>
    where
        S: SampleStream,
        L: Link<S>,
    {
        let n = jobs.len();
        let t0 = Instant::now();
        let done = if self.degraded() || link.is_failed() {
            self.note_degraded();
            jobs.into_iter().map(extend_inline).collect()
        } else {
            self.run(link, jobs)
        };
        if let Some(o) = &self.obs {
            o.batches.inc();
            o.jobs.add(n as u64);
            o.fanout_nanos.add(t0.elapsed().as_nanos() as u64);
            o.batch_size_hwm.record(n as u64);
            if let Some(pct) = link.busy_pct() {
                o.busy_pct.record(pct);
            }
        }
        done
    }

    fn run<S: SampleStream, L: Link<S>>(
        &self,
        link: &L,
        jobs: Vec<StreamJob<S>>,
    ) -> Vec<StreamJob<S>> {
        let n = jobs.len();
        let mut batch: Batch<S, L::Ticket> = Batch {
            pending: (0..n).map(|_| None).collect(),
            out: (0..n).map(|_| None).collect(),
            live: 0,
            legs_shipped: 0,
        };
        // Ship everything before waiting on anything.
        let shipped = link.ship(&jobs);
        for ((idx, job), shipped) in jobs.into_iter().enumerate().zip(shipped) {
            self.place(&mut batch, idx, job, 1, shipped);
        }
        let limit = self.retry.timeout.or(L::DEFAULT_TIMEOUT);
        while batch.live > 0 {
            let wait = batch.next_wake(limit, self.hedge_after());
            let outcomes = link.wait(&batch.legs(), wait);
            for (id, outcome) in outcomes {
                self.settle(link, &mut batch, id, outcome);
            }
            // One hedge-threshold read per pass: the estimate moves with
            // completions, not mid-pass.
            let hedge_after = self.hedge_after();
            for idx in 0..n {
                let Some(p) = &batch.pending[idx] else {
                    continue;
                };
                let age = p.primary.shipped.elapsed();
                if limit.is_some_and(|limit| age >= limit) {
                    // The attempt overran its deadline: abandon both copies
                    // (a late answer is discarded) and re-issue.
                    self.count(|o| &o.retry_timeouts);
                    if let Some(p) = batch.take(idx) {
                        let (job, attempt) = p.abandon(link);
                        self.retry_or_inline(link, &mut batch, idx, job, attempt);
                    }
                } else if p.hedge.is_none() && hedge_after.is_some_and(|after| age >= after) {
                    if let Shipped::Ticket(t) = ship_one(link, &p.job) {
                        self.count(|o| &o.hedge_launched);
                        let leg = batch.leg(t);
                        if let Some(p) = &mut batch.pending[idx] {
                            p.hedge = Some(leg);
                        }
                    }
                }
            }
            if batch.live == 0 {
                break;
            }
            // A supervision pass each round keeps dead-worker detection
            // bounded even when nothing completes.
            link.supervise();
            if link.is_failed() {
                // No workers and no respawn budget: finish everything still
                // pending inline from the backups.
                self.note_degraded();
                for idx in 0..n {
                    if let Some(p) = batch.take(idx) {
                        batch.finish_inline(idx, p.abandon(link).0);
                    }
                }
            }
        }
        batch
            .out
            .into_iter()
            .map(|o| o.unwrap_or_else(|| panic!("MW dispatch dropped a batch slot")))
            .collect()
    }

    /// Record what the link did with `job` as a new attempt: in flight, or
    /// run inline when the link would not take it.
    fn place<S: SampleStream, T>(
        &self,
        batch: &mut Batch<S, T>,
        idx: usize,
        job: StreamJob<S>,
        attempt: u32,
        shipped: Shipped<T>,
    ) {
        match shipped {
            Shipped::Ticket(t) => {
                let primary = batch.leg(t);
                batch.put(
                    idx,
                    Pending {
                        job,
                        attempt,
                        primary,
                        hedge: None,
                    },
                );
                return;
            }
            Shipped::Unavailable => self.note_degraded(),
            Shipped::Unsupported => {}
        }
        batch.finish_inline(idx, job);
    }

    /// Re-issue a lost or expired job if attempts and workers remain;
    /// otherwise run it inline (degradation at single-job granularity —
    /// the batch still completes with correct results).
    fn retry_or_inline<S: SampleStream, L: Link<S>>(
        &self,
        link: &L,
        batch: &mut Batch<S, L::Ticket>,
        idx: usize,
        job: StreamJob<S>,
        attempt: u32,
    ) {
        let failed = link.is_failed();
        let attempt = attempt + 1;
        if attempt <= self.retry.max_attempts && !failed {
            self.count(|o| &o.retry_attempts);
            let backoff = self.retry.backoff_before(attempt);
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
            let shipped = ship_one(link, &job);
            self.place(batch, idx, job, attempt, shipped);
            return;
        }
        if failed {
            self.note_degraded();
        }
        batch.finish_inline(idx, job);
    }

    /// Apply one copy's outcome. Copies of a job already resolved, or
    /// abandoned earlier in this pass, are ignored.
    fn settle<S: SampleStream, L: Link<S>>(
        &self,
        link: &L,
        batch: &mut Batch<S, L::Ticket>,
        id: LegId,
        outcome: Outcome<S>,
    ) {
        let from_hedge = match &batch.pending[id.idx] {
            Some(p) if p.primary.id == id.leg => false,
            Some(Pending { hedge: Some(h), .. }) if h.id == id.leg => true,
            _ => return,
        };
        match outcome {
            Outcome::Done(stream) => {
                let Some(p) = batch.take(id.idx) else { return };
                // First answer wins; the other copy is forgotten. Both carry
                // identical bits, so hedging changes when, never what.
                let (winner, loser) = match p.hedge {
                    Some(h) if from_hedge => (h, Some(p.primary)),
                    hedge => (p.primary, hedge),
                };
                if from_hedge {
                    self.count(|o| &o.hedge_wins);
                }
                self.observe_latency(winner.shipped.elapsed());
                if let Some(l) = loser {
                    link.forget(l.ticket);
                }
                batch.out[id.idx] = Some(StreamJob { stream, ..p.job });
            }
            Outcome::Lost if from_hedge => {
                // A dead hedge is no worse than no hedge.
                if let Some(p) = &mut batch.pending[id.idx] {
                    p.hedge = None;
                }
            }
            Outcome::Lost => {
                // Reap/respawn before re-issuing so the retry lands on a
                // live worker where possible.
                link.supervise();
                let Some(mut p) = batch.take(id.idx) else {
                    return;
                };
                match p.hedge.take() {
                    // The hedge already carries this extension: promote it
                    // instead of spending a retry attempt.
                    Some(h) => {
                        p.primary = h;
                        batch.put(id.idx, p);
                    }
                    None => self.retry_or_inline(link, batch, id.idx, p.job, p.attempt),
                }
            }
            Outcome::Unsupported => {
                let Some(p) = batch.take(id.idx) else { return };
                let other = if from_hedge { Some(p.primary) } else { p.hedge };
                if let Some(l) = other {
                    link.forget(l.ticket);
                }
                batch.finish_inline(id.idx, p.job);
            }
        }
    }
}

/// One conformance suite for both backends: every case is a function of the
/// backend kind, run once over worker threads and once over worker
/// processes.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::backend::ThreadedBackend;
    use crate::faults::FaultPlan;
    use crate::pool::{default_respawn_budget, MwPool};
    use crate::transport::ProcessBackend;
    use stoch_eval::backend::{SamplingBackend, SerialBackend};
    use stoch_eval::functions::Rosenbrock;
    use stoch_eval::noise::ConstantNoise;
    use stoch_eval::objective::StochasticObjective;
    use stoch_eval::sampler::Noisy;

    pub(crate) type Stream = <Noisy<Rosenbrock, ConstantNoise> as StochasticObjective>::Stream;

    pub(crate) fn jobs_at(
        obj: &Noisy<Rosenbrock, ConstantNoise>,
        n: usize,
    ) -> Vec<StreamJob<Stream>> {
        (0..n)
            .map(|i| StreamJob {
                slot: i,
                dt: 1.0 + i as f64,
                stream: obj.open(&[i as f64, 0.5], 100 + i as u64),
            })
            .collect()
    }

    pub(crate) fn assert_batches_identical(a: &[StreamJob<Stream>], b: &[StreamJob<Stream>]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.slot, y.slot);
            assert_eq!(x.dt, y.dt);
            let (ea, eb) = (x.stream.estimate(), y.stream.estimate());
            assert_eq!(ea.value.to_bits(), eb.value.to_bits());
            assert_eq!(ea.std_err.to_bits(), eb.std_err.to_bits());
            assert_eq!(ea.time.to_bits(), eb.time.to_bits());
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Kind {
        Threads,
        Processes,
    }

    type Backend = Box<dyn SamplingBackend<Stream>>;

    /// A dedicated backend of `kind`, with an explicit hedging policy so no
    /// case depends on the environment.
    fn backend(
        kind: Kind,
        n_workers: usize,
        faults: FaultPlan,
        retry: RetryPolicy,
        respawn_budget: u64,
        registry: Option<&MetricsRegistry>,
        hedge: HedgePolicy,
    ) -> Backend {
        match kind {
            Kind::Threads => Box::new(
                ThreadedBackend::with_options(n_workers, faults, retry, respawn_budget, registry)
                    .with_hedge(hedge),
            ),
            Kind::Processes => Box::new(
                ProcessBackend::with_options(n_workers, faults, retry, respawn_budget, registry)
                    .with_hedge(hedge),
            ),
        }
    }

    /// [`backend`] with default retries and respawn budget, hedging off.
    fn faulted(
        kind: Kind,
        n_workers: usize,
        faults: FaultPlan,
        reg: Option<&MetricsRegistry>,
    ) -> Backend {
        let budget = default_respawn_budget(n_workers);
        backend(
            kind,
            n_workers,
            faults,
            RetryPolicy::default(),
            budget,
            reg,
            HedgePolicy::default(),
        )
    }

    /// The pool counter that records a revived worker.
    fn respawns(kind: Kind, reg: &MetricsRegistry) -> u64 {
        match kind {
            Kind::Threads => reg.counter("mw.pool.respawns").get(),
            Kind::Processes => reg.counter("mw.transport.reconnects").get(),
        }
    }

    fn matches_serial_bit_for_bit(kind: Kind) {
        let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(5.0));
        let serial = SerialBackend.extend_batch(jobs_at(&obj, 6));
        let b = faulted(kind, 3, FaultPlan::none(), None);
        assert_batches_identical(&serial, &b.extend_batch(jobs_at(&obj, 6)));
        assert!(!b.degraded(), "{kind:?}");
    }

    fn batch_returns_in_submission_order(kind: Kind) {
        let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(1.0));
        let b = faulted(kind, 4, FaultPlan::none(), None);
        for _ in 0..20 {
            let slots: Vec<usize> = b
                .extend_batch(jobs_at(&obj, 8))
                .iter()
                .map(|j| j.slot)
                .collect();
            assert_eq!(slots, (0..8).collect::<Vec<_>>(), "{kind:?}");
        }
    }

    fn worker_death_is_survived_bit_for_bit(kind: Kind) {
        let reg = MetricsRegistry::new();
        let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(3.0));
        let serial = SerialBackend.extend_batch(jobs_at(&obj, 12));
        // Worker 0 dies after one job; supervision revives it and the lost
        // extension is re-issued from the master-side backup.
        let b = faulted(kind, 2, FaultPlan::none().kill(0, 1), Some(&reg));
        assert_batches_identical(&serial, &b.extend_batch(jobs_at(&obj, 12)));
        assert!(!b.degraded(), "{kind:?}");
        if kind == Kind::Processes {
            // Round-robin dispatch guarantees worker 0 a second job; a
            // shared thread queue does not.
            assert!(respawns(kind, &reg) >= 1);
        }
    }

    fn dropped_result_or_frame_is_retried_bit_for_bit(kind: Kind) {
        let reg = MetricsRegistry::new();
        let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(2.0));
        let serial = SerialBackend.extend_batch(jobs_at(&obj, 8));
        // Worker 0 discards its third result; over a wire, the second job
        // frame to worker 1 also vanishes. Threads see the loss at once;
        // the wire only through the per-attempt deadline.
        let faults = FaultPlan::none().drop_result(0, 2).net_drop(1, 1);
        let retry = RetryPolicy {
            timeout: Some(Duration::from_millis(300)),
            ..RetryPolicy::default()
        };
        let b = backend(
            kind,
            2,
            faults,
            retry,
            default_respawn_budget(2),
            Some(&reg),
            HedgePolicy::default(),
        );
        assert_batches_identical(&serial, &b.extend_batch(jobs_at(&obj, 8)));
        assert!(!b.degraded(), "{kind:?}");
        if kind == Kind::Processes {
            assert!(reg.counter("mw.retry.timeouts").get() >= 1);
        }
    }

    fn per_attempt_timeout_fires_and_results_stay_identical(kind: Kind) {
        let reg = MetricsRegistry::new();
        let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(1.0));
        let serial = SerialBackend.extend_batch(jobs_at(&obj, 2));
        // Every job on the sole worker is delayed 60ms but the per-attempt
        // budget is 10ms: the master gives up on the straggler, retries,
        // and falls back inline. Slowness costs time, never correctness.
        let retry = RetryPolicy {
            max_attempts: 2,
            timeout: Some(Duration::from_millis(10)),
            backoff: Duration::ZERO,
        };
        let faults = FaultPlan::none().delay(0, 0, 60);
        let b = backend(
            kind,
            1,
            faults,
            retry,
            default_respawn_budget(1),
            Some(&reg),
            HedgePolicy::default(),
        );
        assert_batches_identical(&serial, &b.extend_batch(jobs_at(&obj, 2)));
        assert!(reg.counter("mw.retry.timeouts").get() >= 1, "{kind:?}");
    }

    fn attempt_deadlines_do_not_fire_on_healthy_runs(kind: Kind) {
        // The per-attempt clock starts at dispatch, and a healthy worker
        // answering within budget must never trip it.
        let reg = MetricsRegistry::new();
        let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(1.0));
        let retry = RetryPolicy {
            max_attempts: 4,
            timeout: Some(Duration::from_secs(30)),
            backoff: Duration::ZERO,
        };
        let b = backend(
            kind,
            2,
            FaultPlan::none(),
            retry,
            default_respawn_budget(2),
            Some(&reg),
            HedgePolicy::default(),
        );
        for _ in 0..5 {
            b.extend_batch(jobs_at(&obj, 8));
        }
        assert_eq!(reg.counter("mw.retry.timeouts").get(), 0, "{kind:?}");
        assert_eq!(reg.counter("mw.retry.attempts").get(), 0, "{kind:?}");
    }

    fn exhausted_pool_degrades_to_inline_within_bounded_time(kind: Kind) {
        // The sole worker dies on its first job and there is no respawn
        // budget: the batch must still complete (inline), promptly, with
        // results identical to serial — and report degradation.
        let reg = MetricsRegistry::new();
        let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(2.0));
        let serial = SerialBackend.extend_batch(jobs_at(&obj, 6));
        let faults = FaultPlan::none().kill(0, 0);
        let b = backend(
            kind,
            1,
            faults,
            RetryPolicy::default(),
            0,
            Some(&reg),
            HedgePolicy::default(),
        );
        let t0 = Instant::now();
        let done = b.extend_batch(jobs_at(&obj, 6));
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "{kind:?}: degradation took {:?}",
            t0.elapsed()
        );
        assert_batches_identical(&serial, &done);
        assert!(b.degraded(), "{kind:?}");
        assert!(reg.counter("mw.backend.degraded").get() >= 1, "{kind:?}");
        // Later batches keep working, inline.
        assert_batches_identical(&serial, &b.extend_batch(jobs_at(&obj, 6)));
    }

    /// Run `batch` on a two-worker pool with worker 0 holding one of its
    /// jobs. Otherwise the shared queue may hand worker 1 every job while
    /// worker 0 is still waking. Both workers are parked on pool jobs,
    /// worker 0 is freed, and worker 1 is freed only once worker 0 has
    /// taken a batch job.
    fn with_worker_zero_engaged<R: Send>(pool: &MwPool, batch: impl FnOnce() -> R + Send) -> R {
        let (started, on) = std::sync::mpsc::channel();
        let parked: Vec<_> = (0..2)
            .map(|k| {
                let (release, gate) = std::sync::mpsc::channel::<()>();
                let started = started.clone();
                let handle = pool.submit(move |w| {
                    let _ = started.send((w, k));
                    let _ = gate.recv();
                });
                (release, handle)
            })
            .collect();
        let mut hold_on = [0; 2];
        for _ in 0..2 {
            let (w, k) = on.recv().expect("parking job reports its worker");
            hold_on[w] = k;
        }
        let (release, handle) = &parked[hold_on[0]];
        let _ = release.send(());
        while handle.try_recv() == Ok(None) {
            std::thread::sleep(Duration::from_micros(100));
        }
        // A worker's idle time grows when it receives a job, so the next
        // change is worker 0 taking a batch job.
        let idle = pool.idle_seconds()[0];
        std::thread::scope(|s| {
            let run = s.spawn(batch);
            let deadline = Instant::now() + Duration::from_secs(10);
            while pool.idle_seconds()[0] == idle {
                assert!(Instant::now() < deadline, "worker 0 never took a job");
                std::thread::sleep(Duration::from_micros(100));
            }
            let _ = parked[hold_on[1]].0.send(());
            run.join().expect("batch completes")
        })
    }

    fn hedged_straggler_stays_bit_identical_and_records_wins(kind: Kind) {
        let reg = MetricsRegistry::new();
        let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(2.0));
        // Worker 0 sleeps 50ms on every job — a permanent straggler. An
        // aggressive hedge policy re-ships its jobs, and every batch must
        // stay bit-identical to serial.
        let hedge = HedgePolicy::parse("on:q=0.5:factor=1:min_ms=5:warmup=5").unwrap();
        let faults = FaultPlan::none().delay(0, 0, 50);
        let budget = default_respawn_budget(2);
        // Round-robin shipping hands worker 0 jobs on the wire; a shared
        // thread queue needs the first batch steered onto it.
        let (b, pool): (Backend, _) = match kind {
            Kind::Threads => {
                let t = ThreadedBackend::with_options(
                    2,
                    faults,
                    RetryPolicy::default(),
                    budget,
                    Some(&reg),
                )
                .with_hedge(hedge);
                let pool = Arc::clone(t.pool());
                (Box::new(t), Some(pool))
            }
            Kind::Processes => {
                let b = backend(
                    kind,
                    2,
                    faults,
                    RetryPolicy::default(),
                    budget,
                    Some(&reg),
                    hedge,
                );
                (b, None)
            }
        };
        for i in 0..5 {
            let serial = SerialBackend.extend_batch(jobs_at(&obj, 8));
            let batch = || b.extend_batch(jobs_at(&obj, 8));
            let got = match &pool {
                Some(pool) if i == 0 => with_worker_zero_engaged(pool, batch),
                _ => batch(),
            };
            assert_batches_identical(&serial, &got);
        }
        assert!(!b.degraded(), "{kind:?}");
        assert!(
            reg.counter("mw.hedge.launched").get() >= 1,
            "{kind:?}: no hedge launched"
        );
        assert!(
            reg.counter("mw.hedge.wins").get() >= 1,
            "{kind:?}: no hedge won"
        );
        // Hedging is not retrying: a slow-but-healthy worker must not spend
        // retry attempts or trip deadlines.
        assert_eq!(reg.counter("mw.retry.attempts").get(), 0, "{kind:?}");
        assert_eq!(reg.counter("mw.retry.timeouts").get(), 0, "{kind:?}");
    }

    fn timeout_with_a_hedge_in_flight_abandons_both_copies(kind: Kind) {
        let reg = MetricsRegistry::new();
        let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(2.0));
        // The sole worker answers its first five jobs at once, warming the
        // estimator, then takes 300ms per job. In the slow batch each
        // attempt is hedged after 5ms and expires at 100ms. Abandoning both
        // copies leaves attempt 2 unhedged, so it launches a hedge of its
        // own; carrying attempt 1's hedge over would launch only one.
        let hedge = HedgePolicy::parse("on:q=0.5:factor=1:min_ms=5:warmup=5").unwrap();
        let retry = RetryPolicy {
            max_attempts: 2,
            timeout: Some(Duration::from_millis(100)),
            backoff: Duration::ZERO,
        };
        let faults = FaultPlan::none().delay(0, 5, 300);
        let b = backend(
            kind,
            1,
            faults,
            retry,
            default_respawn_budget(1),
            Some(&reg),
            hedge,
        );
        assert_batches_identical(
            &SerialBackend.extend_batch(jobs_at(&obj, 5)),
            &b.extend_batch(jobs_at(&obj, 5)),
        );
        assert_batches_identical(
            &SerialBackend.extend_batch(jobs_at(&obj, 1)),
            &b.extend_batch(jobs_at(&obj, 1)),
        );
        assert_eq!(reg.counter("mw.retry.timeouts").get(), 2, "{kind:?}");
        assert_eq!(reg.counter("mw.retry.attempts").get(), 1, "{kind:?}");
        assert_eq!(reg.counter("mw.hedge.launched").get(), 2, "{kind:?}");
        assert_eq!(reg.counter("mw.hedge.wins").get(), 0, "{kind:?}");
    }

    fn metrics_record_batches_and_jobs(kind: Kind) {
        let reg = MetricsRegistry::new();
        let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(1.0));
        // Built as production builds them: faults from `NSX_FAULTS`.
        let b: Backend = match kind {
            Kind::Threads => Box::new(ThreadedBackend::with_metrics(2, &reg)),
            Kind::Processes => Box::new(ProcessBackend::with_options(
                2,
                FaultPlan::from_env(),
                RetryPolicy::default(),
                default_respawn_budget(2),
                Some(&reg),
            )),
        };
        for _ in 0..3 {
            b.extend_batch(jobs_at(&obj, 5));
        }
        assert_eq!(reg.counter("mw.backend.batches").get(), 3, "{kind:?}");
        assert_eq!(reg.counter("mw.backend.jobs").get(), 15, "{kind:?}");
        assert!(reg.counter("mw.backend.fanout_nanos").get() > 0, "{kind:?}");
        assert_eq!(reg.gauge("mw.backend.batch_size_hwm").max(), 5, "{kind:?}");
        // The pool mirrored its own counters too. Under `NSX_FAULTS` chaos
        // runs, retries may add submissions beyond the batch jobs, so this
        // is a floor rather than an exact count.
        let shipped = match kind {
            Kind::Threads => reg.counter("mw.pool.jobs_submitted").get(),
            Kind::Processes => reg.counter("mw.transport.frames_sent").get(),
        };
        assert!(shipped >= 15, "{kind:?}");
    }

    fn shared_backend_is_one_pool(kind: Kind) {
        match kind {
            Kind::Threads => {
                let (a, b) = (ThreadedBackend::shared(), ThreadedBackend::shared());
                assert!(Arc::ptr_eq(&a, &b));
                assert!(a.pool().n_workers() >= 1);
            }
            Kind::Processes => {
                let (a, b) = (ProcessBackend::shared(), ProcessBackend::shared());
                assert!(Arc::ptr_eq(&a, &b));
                assert!(a.pool().n_workers() >= 1);
            }
        }
    }

    /// One `#[test]` per case and backend kind.
    macro_rules! conformance {
        ($($case:ident),* $(,)?) => {
            mod threads {
                $(#[test]
                fn $case() {
                    super::$case(super::Kind::Threads)
                })*
            }
            mod processes {
                $(#[test]
                fn $case() {
                    super::$case(super::Kind::Processes)
                })*
            }
        };
    }

    conformance!(
        matches_serial_bit_for_bit,
        batch_returns_in_submission_order,
        worker_death_is_survived_bit_for_bit,
        dropped_result_or_frame_is_retried_bit_for_bit,
        per_attempt_timeout_fires_and_results_stay_identical,
        attempt_deadlines_do_not_fire_on_healthy_runs,
        exhausted_pool_degrades_to_inline_within_bounded_time,
        hedged_straggler_stays_bit_identical_and_records_wins,
        timeout_with_a_hedge_in_flight_abandons_both_copies,
        metrics_record_batches_and_jobs,
        shared_backend_is_one_pool,
    );
}
