//! The multi-run scheduler: admits runs with priority and fair-share
//! weights, time-slices them from the caller's thread over one shared inner
//! backend (merging the rounds they post, see [`Scheduler::tick`]), and
//! preempts via the checkpoint codec when more runs are ready than the
//! fleet width.
//!
//! # Fairness policy
//!
//! Weighted virtual runtime, in miniature CFS style: every run carries a
//! `vruntime` that advances by `rounds / effective_weight` each time it is
//! scheduled, where `effective_weight = weight · 2^priority`. Each tick the
//! `width` ready runs with the *smallest* vruntime are selected, so a
//! double-weight run receives twice the rounds per unit of vruntime and a
//! starved run's unchanged vruntime eventually makes it the minimum.
//!
//! # Preemption
//!
//! At the end of a tick, an unfinished resident run is suspended to
//! checkpoint bytes in memory (the PR-5 codec: simplex, streams, RNG
//! cursor, trace, accounting) whenever contention exists (more ready runs
//! than width). Resumption rebuilds the engine on whatever backend the
//! scheduler chooses — the snapshot carries no backend state — which is
//! also how a run migrates between a dedicated backend and the shared
//! fleet. Runs whose streams cannot `save_state` simply stay resident:
//! they are non-preemptible but still correct.
//!
//! # Determinism invariant
//!
//! A run's result is `f64::to_bits`-identical whether it ran alone,
//! time-sliced against 999 neighbours, or was preempted and resumed
//! mid-flight. Three mechanisms compose to guarantee it: the backend
//! determinism contract (jobs independent, submission order preserved)
//! makes merged fleet batches equal solo batches; a polled step performs
//! the same calls in the same order as a solo loop; and the checkpoint
//! codec round-trips the full master-side state bit-exactly.
//!
//! # Durability
//!
//! A run's due checkpoint writes leave the tick: the scheduler installs a
//! sink on every session it builds or resumes, and the sink queues the
//! run's snapshot on the scheduler's one writer thread (see `writer.rs`),
//! which writes it with `checkpoint::save` unchanged. So a file lags its
//! run by at most the writes in flight. A write that fails is recorded as
//! [`RunNote::CheckpointFailed`] on its run: on the run's session when the
//! run is next activated, or, once the run is done, on its result at the
//! next tick. [`Scheduler::run`], [`Scheduler::into_results`]
//! and dropping the scheduler wait for every write handed over so far.

use crate::config::SchedConfig;
use crate::writer::Writer;
use noisy_simplex::config::{ConfigError, SimplexConfig};
use noisy_simplex::result::{RunNote, RunResult};
use noisy_simplex::session::{Driver, Progress, RunSession, SessionStatus};
use noisy_simplex::termination::Termination;
use obs::{Counter, Gauge, MetricsRegistry};
use std::sync::Arc;
use std::time::Instant;
use stoch_eval::backend::{SamplingBackend, StreamJob};
use stoch_eval::clock::TimeMode;
use stoch_eval::objective::StochasticObjective;

/// Everything needed to admit one run to the service.
pub struct RunSpec<'a, F: StochasticObjective> {
    /// The objective to optimize (shared, never consumed).
    pub objective: &'a F,
    /// Initial simplex vertices.
    pub init: Vec<Vec<f64>>,
    /// Engine configuration. The scheduler overrides the backend choice
    /// (runs dispatch on the shared fleet) unless the config is
    /// [`customized`](SimplexConfig::customized) — fault plans, retry
    /// tweaks, respawn budgets — in which case the run gets a dedicated
    /// backend so its chaos cannot starve its neighbours. A configured
    /// checkpoint path is made per-run via
    /// [`CheckpointConfig::for_run`](noisy_simplex::checkpoint::CheckpointConfig::for_run).
    pub cfg: SimplexConfig,
    /// Termination criteria.
    pub term: Termination,
    /// Virtual-time accounting mode.
    pub mode: TimeMode,
    /// Master RNG seed.
    pub seed: u64,
    /// Which algorithm drives the run.
    pub driver: Driver,
    /// Scheduling priority; each step up doubles the effective weight.
    /// Clamped to ±16.
    pub priority: i32,
    /// Fair-share weight (> 0); relative share of scheduler rounds.
    pub weight: f64,
}

impl<'a, F: StochasticObjective> RunSpec<'a, F> {
    /// A spec with default priority (0) and weight (1).
    pub fn new(
        objective: &'a F,
        init: Vec<Vec<f64>>,
        cfg: SimplexConfig,
        term: Termination,
        mode: TimeMode,
        seed: u64,
        driver: Driver,
    ) -> Self {
        RunSpec {
            objective,
            init,
            cfg,
            term,
            mode,
            seed,
            driver,
            priority: 0,
            weight: 1.0,
        }
    }

    /// Set the priority (doubling effective weight per step, clamped ±16).
    pub fn priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Set the fair-share weight (values ≤ 0 are treated as 1).
    pub fn weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }
}

enum State<'a, F: StochasticObjective> {
    /// Admitted, never started. `Option` so activation can take the init.
    Pending,
    /// Live engine between time slices.
    Resident(Box<RunSession<'a, F>>),
    /// Preempted to checkpoint bytes.
    Suspended(Vec<u8>),
    /// Evicted to checkpoint bytes after its dedicated backend exhausted
    /// its fault budgets (DESIGN.md §16). Not schedulable until
    /// [`Scheduler::readmit`] re-homes it.
    Quarantined(Vec<u8>),
    /// Finished (boxed: results dwarf the other variants).
    Done(Box<RunResult>),
}

struct Entry<'a, F: StochasticObjective> {
    objective: &'a F,
    cfg: SimplexConfig,
    term: Termination,
    mode: TimeMode,
    seed: u64,
    driver: Driver,
    effective_weight: f64,
    vruntime: f64,
    init: Option<Vec<Vec<f64>>>,
    state: State<'a, F>,
    /// Dedicated backend for customized (chaos) configs; `None` = fleet.
    dedicated: Option<Arc<dyn SamplingBackend<F::Stream>>>,
    registry: MetricsRegistry,
    rounds: Arc<Counter>,
    preemptions: Arc<Counter>,
    wait_nanos: Arc<Counter>,
    ready_since: Option<Instant>,
    admitted_at: Instant,
    started: bool,
    /// The run was quarantined at least once; its final result carries
    /// [`RunNote::Quarantined`].
    was_quarantined: bool,
    /// A checkpoint write of this unfinished run failed; the note goes on
    /// its session when the run is next activated.
    ckpt_failed: bool,
}

/// `sched.fleet.*`: dispatches on the inner backend, how many of those
/// merged more than one run's round, total jobs shipped, and the largest
/// combined batch.
struct FleetObs {
    dispatches: Arc<Counter>,
    merged_dispatches: Arc<Counter>,
    jobs: Arc<Counter>,
    batch_jobs_hwm: Arc<Gauge>,
}

impl FleetObs {
    /// One dispatch on the inner backend carrying `rounds` runs' rounds.
    fn record(&self, rounds: usize, jobs: usize) {
        self.dispatches.inc();
        if rounds > 1 {
            self.merged_dispatches.inc();
        }
        self.jobs.add(jobs as u64);
        self.batch_jobs_hwm.record(jobs as u64);
    }
}

/// The shared-fleet scheduling service. See the module docs.
pub struct Scheduler<'a, F: StochasticObjective> {
    cfg: SchedConfig,
    inner: Arc<dyn SamplingBackend<F::Stream>>,
    fleet: FleetObs,
    service: MetricsRegistry,
    entries: Vec<Entry<'a, F>>,
    ticks: Arc<Counter>,
    admitted: Arc<Counter>,
    completed: Arc<Counter>,
    svc_preemptions: Arc<Counter>,
    quarantines: Arc<Counter>,
    admission_latency: Arc<Counter>,
    queue_depth_hwm: Arc<Gauge>,
    fairness_spread: Arc<Gauge>,
    /// Writes every run's due checkpoints off the tick.
    writer: Arc<Writer>,
}

impl<'a, F: StochasticObjective> Scheduler<'a, F> {
    /// A scheduler dispatching the fleet's merged batches on `inner`.
    pub fn new(cfg: SchedConfig, inner: Arc<dyn SamplingBackend<F::Stream>>) -> Self {
        let service = MetricsRegistry::new();
        Scheduler {
            cfg,
            inner,
            fleet: FleetObs {
                dispatches: service.counter("sched.fleet.dispatches"),
                merged_dispatches: service.counter("sched.fleet.merged_dispatches"),
                jobs: service.counter("sched.fleet.jobs"),
                batch_jobs_hwm: service.gauge("sched.fleet.batch_jobs_hwm"),
            },
            ticks: service.counter("sched.ticks"),
            admitted: service.counter("sched.runs_admitted"),
            completed: service.counter("sched.runs_completed"),
            svc_preemptions: service.counter("sched.preemptions"),
            quarantines: service.counter("sched.runs.quarantined"),
            admission_latency: service.counter("sched.admission_latency_nanos"),
            queue_depth_hwm: service.gauge("sched.queue_depth_hwm"),
            fairness_spread: service.gauge("sched.fairness.vruntime_spread_milli"),
            service,
            entries: Vec::new(),
            writer: Writer::new(),
        }
    }

    /// The service-wide metrics registry (`sched.*`, `sched.fleet.*`, and —
    /// when a shared `MwPool` attaches to it — `mw.pool.*`).
    pub fn service_registry(&self) -> &MetricsRegistry {
        &self.service
    }

    /// The per-run registry (`sched.run.*`), if `id` exists.
    pub fn run_registry(&self, id: u64) -> Option<&MetricsRegistry> {
        self.entries.get(id as usize).map(|e| &e.registry)
    }

    /// Route a shared [`MwPool`](mw_framework::MwPool)'s `mw.pool.*`
    /// counters (jobs submitted, queue-depth high-water mark — pool-global,
    /// so they account for every run on the shared pool) into the service
    /// registry. First attachment wins; returns `false` if the pool already
    /// reports elsewhere.
    pub fn attach_pool(&self, pool: &mw_framework::MwPool) -> bool {
        pool.attach_registry(&self.service)
    }

    /// Admit a run, returning its id. Fails with the [`ConfigError`] the
    /// engine would otherwise panic on when the run first starts — a
    /// malformed initial simplex, invalid coefficients or an invalid
    /// sampling policy — so one bad spec cannot take down a later tick.
    pub fn admit(&mut self, spec: RunSpec<'a, F>) -> Result<u64, ConfigError> {
        spec.cfg.validate_start(spec.objective.dim(), &spec.init)?;
        let dedicated: Option<Arc<dyn SamplingBackend<F::Stream>>> = if spec.cfg.customized() {
            Some(spec.cfg.build_backend())
        } else {
            None
        };
        let id = self.entries.len() as u64;
        let mut cfg = spec.cfg;
        if let Some(ck) = &cfg.checkpoint {
            cfg.checkpoint = Some(ck.for_run(id));
        }
        let priority = spec.priority.clamp(-16, 16);
        let weight = if spec.weight > 0.0 { spec.weight } else { 1.0 };
        let registry = MetricsRegistry::new();
        let entry = Entry {
            objective: spec.objective,
            cfg,
            term: spec.term,
            mode: spec.mode,
            seed: spec.seed,
            driver: spec.driver,
            effective_weight: weight * 2f64.powi(priority),
            vruntime: 0.0,
            init: Some(spec.init),
            state: State::Pending,
            dedicated,
            rounds: registry.counter("sched.run.rounds"),
            preemptions: registry.counter("sched.run.preemptions"),
            wait_nanos: registry.counter("sched.run.wait_nanos"),
            registry,
            ready_since: Some(Instant::now()),
            admitted_at: Instant::now(),
            started: false,
            was_quarantined: false,
            ckpt_failed: false,
        };
        self.entries.push(entry);
        self.admitted.inc();
        Ok(id)
    }

    fn ready_indices(&self) -> Vec<usize> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| !matches!(e.state, State::Done(_) | State::Quarantined(_)))
            .map(|(i, _)| i)
            .collect()
    }

    /// Run one scheduling tick: select up to `width` ready runs by minimum
    /// vruntime, advance each by `quantum` steps, then preempt unfinished
    /// runs if contention remains. Returns `false` once every run is done.
    ///
    /// The tick starts no threads but the checkpoint writer, once, on its
    /// first due write. It polls each run
    /// ([`RunSession::poll`]) until the run posts a sampling round or its
    /// slice is over, runs every posted round as **one** `extend_batch` on
    /// the inner backend, hands each run its share back
    /// ([`RunSession::deliver`]), and repeats. Runs with a dedicated (chaos)
    /// backend sample on it inline.
    pub fn tick(&mut self) -> bool {
        self.land_checkpoint_failures();
        let mut ready = self.ready_indices();
        if ready.is_empty() {
            return false;
        }
        self.ticks.inc();
        self.queue_depth_hwm.record(ready.len() as u64);
        ready.sort_by(|&a, &b| {
            self.entries[a]
                .vruntime
                .total_cmp(&self.entries[b].vruntime)
                .then(a.cmp(&b))
        });
        let width = self.cfg.width.max(1).min(ready.len());
        let contention = ready.len() > width;
        let quantum = self.cfg.quantum.max(1);

        // Activate: build/resume sessions and account for wait time.
        // Each slice: (entry, session, steps taken this tick).
        let mut slices: Vec<(usize, Box<RunSession<'a, F>>, u64)> = Vec::with_capacity(width);
        for &i in &ready[..width] {
            let e = &mut self.entries[i];
            if let Some(since) = e.ready_since.take() {
                e.wait_nanos.add(since.elapsed().as_nanos() as u64);
            }
            if !e.started {
                e.started = true;
                self.admission_latency
                    .add(e.admitted_at.elapsed().as_nanos() as u64);
            }
            let backend = Arc::clone(e.dedicated.as_ref().unwrap_or(&self.inner));
            let (mut session, built) = match std::mem::replace(&mut e.state, State::Pending) {
                State::Pending => {
                    let init = e
                        .init
                        .take()
                        .expect("pending run without an initial simplex");
                    // The constructor samples the d + 1 vertices in place:
                    // for a fleet run, one unmerged dispatch on the inner
                    // backend.
                    if e.dedicated.is_none() {
                        self.fleet.record(1, init.len());
                    }
                    let session = RunSession::with_backend(
                        e.objective,
                        init,
                        e.cfg.clone(),
                        e.term,
                        e.mode,
                        e.seed,
                        e.driver,
                        backend,
                    );
                    (Box::new(session), true)
                }
                State::Suspended(payload) => {
                    let session = RunSession::resume_with_backend(
                        e.objective,
                        e.cfg.clone(),
                        &payload,
                        None,
                        e.driver,
                        backend,
                    )
                    .expect("in-memory checkpoint failed to resume");
                    (Box::new(session), true)
                }
                State::Resident(s) => (s, false),
                State::Done(_) | State::Quarantined(_) => {
                    unreachable!("done and quarantined runs are filtered from the ready set")
                }
            };
            if built && e.cfg.checkpoint.is_some() {
                session.set_checkpoint_sink(self.writer.sink(i as u64));
            }
            if std::mem::take(&mut e.ckpt_failed) {
                session.record_note(RunNote::CheckpointFailed);
            }
            slices.push((i, session, 0));
        }

        // Poll each run until it posts a round or its slice is over. A
        // dedicated run's round runs inline on its own backend; the fleet
        // runs that posted are kept, in posting order, for one merged batch.
        let mut polled: Vec<_> = slices
            .iter_mut()
            .map(|(i, session, steps)| (self.entries[*i].dedicated.clone(), session, steps))
            .collect();
        loop {
            let mut rounds = Vec::with_capacity(polled.len());
            polled.retain_mut(|(dedicated, session, steps)| loop {
                match (session.poll(), dedicated.as_ref()) {
                    (Progress::NeedSamples(jobs), Some(own)) => {
                        session.deliver(own.extend_batch(jobs))
                    }
                    (Progress::NeedSamples(jobs), None) => {
                        rounds.push(jobs);
                        return true;
                    }
                    (Progress::Stepped(status), _) => {
                        **steps += 1;
                        if status == SessionStatus::Finished || **steps == quantum {
                            return false;
                        }
                    }
                }
            });
            if rounds.is_empty() {
                break;
            }
            for ((_, session, _), jobs) in polled.iter_mut().zip(self.extend_merged(rounds)) {
                session.deliver(jobs);
            }
        }

        for (i, session, steps) in slices {
            let e = &mut self.entries[i];
            e.vruntime += steps as f64 / e.effective_weight;
            e.rounds.add(steps);
            if session.is_finished() {
                let mut res = session.finish();
                if e.was_quarantined && !res.notes.contains(&RunNote::Quarantined) {
                    res.notes.push(RunNote::Quarantined);
                }
                e.state = State::Done(Box::new(res));
                self.completed.inc();
            } else {
                e.ready_since = Some(Instant::now());
                // Run-level supervision (DESIGN.md §16): a run whose
                // *dedicated* backend has burned through its retry/respawn
                // budgets is living in a hostile environment. Evict it to a
                // checkpoint instead of letting it limp along serially and
                // occupy fleet-width slots forever; `readmit` can later
                // re-home it on the shared fleet, bit-identically (the
                // snapshot carries no backend state).
                if e.dedicated.as_ref().is_some_and(|b| b.degraded()) {
                    if let Ok(payload) = session.snapshot() {
                        e.was_quarantined = true;
                        e.dedicated = None;
                        e.state = State::Quarantined(payload);
                        self.quarantines.inc();
                        continue;
                    }
                    // Non-checkpointable: it cannot be evicted, only
                    // tolerated. Falls through to the normal states below.
                }
                if contention {
                    match session.snapshot() {
                        Ok(payload) => {
                            e.preemptions.inc();
                            self.svc_preemptions.inc();
                            e.state = State::Suspended(payload);
                        }
                        // Streams that cannot save state make the run
                        // non-preemptible; it stays resident (correct, just
                        // occupying a slot until it finishes).
                        Err(_) => e.state = State::Resident(session),
                    }
                } else {
                    e.state = State::Resident(session);
                }
            }
        }

        let live: Vec<f64> = self
            .entries
            .iter()
            .filter(|e| e.started && !matches!(e.state, State::Done(_)))
            .map(|e| e.vruntime)
            .collect();
        if live.len() > 1 {
            let max = live.iter().cloned().fold(f64::MIN, f64::max);
            let min = live.iter().cloned().fold(f64::MAX, f64::min);
            self.fairness_spread.record(((max - min) * 1000.0) as u64);
        }
        self.entries
            .iter()
            .any(|e| !matches!(e.state, State::Done(_)))
    }

    /// Run every posted round as one batch on the inner backend and split
    /// the results back per round, in posting order.
    fn extend_merged(
        &self,
        rounds: Vec<Vec<StreamJob<F::Stream>>>,
    ) -> Vec<Vec<StreamJob<F::Stream>>> {
        let lens: Vec<usize> = rounds.iter().map(Vec::len).collect();
        let mut slots = Vec::new();
        // Tag each job with a batch-unique slot so the inner backend never
        // sees two runs' jobs colliding on one slot index; the originals are
        // restored before the split.
        let combined: Vec<_> = (0..)
            .zip(rounds.into_iter().flatten())
            .map(|(slot, job)| {
                slots.push(job.slot);
                StreamJob { slot, ..job }
            })
            .collect();
        self.fleet.record(lens.len(), combined.len());
        let mut done = self
            .inner
            .extend_batch(combined)
            .into_iter()
            .zip(slots)
            .map(|(job, slot)| StreamJob { slot, ..job });
        lens.into_iter()
            .map(|len| done.by_ref().take(len).collect())
            .collect()
    }

    /// Tick until every schedulable run has finished, then wait for their
    /// checkpoint writes: on return every due write is on disk, and every
    /// failed one is noted on its run. Quarantined runs stay parked; call
    /// [`readmit`](Self::readmit) and `run` again to finish them.
    pub fn run(&mut self) {
        while self.tick() {}
        self.flush();
    }

    /// Wait for every checkpoint write handed to the writer so far, and
    /// note the failed ones on their runs.
    pub(crate) fn flush(&mut self) {
        assert!(self.writer.flush(), "the checkpoint writer panicked");
        self.land_checkpoint_failures();
    }

    /// Record each write the writer reports failed as
    /// [`RunNote::CheckpointFailed`] on its run.
    fn land_checkpoint_failures(&mut self) {
        for id in self.writer.take_failures() {
            let e = &mut self.entries[id as usize];
            match &mut e.state {
                State::Done(res) => {
                    if !res.notes.contains(&RunNote::CheckpointFailed) {
                        res.notes.push(RunNote::CheckpointFailed);
                    }
                }
                _ => e.ckpt_failed = true,
            }
        }
    }

    /// Write checkpoints with `save` instead of `checkpoint::save`.
    #[cfg(test)]
    pub(crate) fn write_with(&mut self, save: crate::writer::Save) {
        self.writer = Writer::with_save(save);
    }

    /// Ids of runs currently quarantined (DESIGN.md §16).
    pub fn quarantined(&self) -> Vec<u64> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e.state, State::Quarantined(_)))
            .map(|(i, _)| i as u64)
            .collect()
    }

    /// Re-admit a quarantined run from its eviction checkpoint. The hostile
    /// parts of its configuration — fault plan, respawn-budget override,
    /// retry tweaks — are stripped, so the run resumes on the shared fleet
    /// in a sane environment; everything the optimization itself depends on
    /// (streams, RNG cursor, simplex) is in the checkpoint, so the answer
    /// is bit-identical to a run that never saw chaos. Its final result
    /// carries [`RunNote::Quarantined`]. Returns `false` when `id` is
    /// unknown or not quarantined.
    pub fn readmit(&mut self, id: u64) -> bool {
        let Some(e) = self.entries.get_mut(id as usize) else {
            return false;
        };
        if !matches!(e.state, State::Quarantined(_)) {
            return false;
        }
        let State::Quarantined(payload) = std::mem::replace(&mut e.state, State::Pending) else {
            unreachable!("matched above");
        };
        e.cfg.faults = None;
        e.cfg.respawn_budget = None;
        e.cfg.retry = Default::default();
        e.dedicated = None;
        e.state = State::Suspended(payload);
        e.ready_since = Some(Instant::now());
        true
    }

    /// The finished result for `id`, if that run is done.
    pub fn result(&self, id: u64) -> Option<&RunResult> {
        match self.entries.get(id as usize).map(|e| &e.state) {
            Some(State::Done(res)) => Some(res.as_ref()),
            _ => None,
        }
    }

    /// Consume the scheduler, yielding `(id, result)` for every finished
    /// run (unfinished runs are dropped), once their checkpoint writes are
    /// done.
    pub fn into_results(mut self) -> Vec<(u64, RunResult)> {
        self.flush();
        std::mem::take(&mut self.entries)
            .into_iter()
            .enumerate()
            .filter_map(|(i, e)| match e.state {
                State::Done(res) => Some((i as u64, *res)),
                _ => None,
            })
            .collect()
    }
}

impl<F: StochasticObjective> Drop for Scheduler<'_, F> {
    /// Wait for the checkpoint writes handed over so far.
    fn drop(&mut self) {
        // A panicked writer is reported by `run` and `into_results`; a
        // panic here could abort an unwinding thread.
        let _ = self.writer.flush();
    }
}
