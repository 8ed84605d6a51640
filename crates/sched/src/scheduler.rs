//! The multi-run scheduler: admits runs with priority and fair-share
//! weights, time-slices them over one shared [`FleetBackend`], and preempts
//! via the checkpoint codec when more runs are ready than the fleet width.
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
//! makes merged fleet batches equal solo batches; `RunSession::step`
//! performs the same calls in the same order as a solo loop; and the
//! checkpoint codec round-trips the full master-side state bit-exactly.

use crate::config::SchedConfig;
use crate::fleet::{FleetBackend, FleetTicket};
use noisy_simplex::config::{ConfigError, SimplexConfig};
use noisy_simplex::result::{RunNote, RunResult};
use noisy_simplex::session::{Driver, RunSession, SessionStatus};
use noisy_simplex::termination::Termination;
use obs::{Counter, Gauge, MetricsRegistry};
use std::sync::Arc;
use std::time::Instant;
use stoch_eval::backend::SamplingBackend;
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
}

/// The shared-fleet scheduling service. See the module docs.
pub struct Scheduler<'a, F: StochasticObjective> {
    cfg: SchedConfig,
    fleet: Arc<FleetBackend<F::Stream>>,
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
}

impl<'a, F: StochasticObjective> Scheduler<'a, F> {
    /// A scheduler dispatching the fleet's merged batches on `inner`.
    pub fn new(cfg: SchedConfig, inner: Arc<dyn SamplingBackend<F::Stream>>) -> Self {
        let service = MetricsRegistry::new();
        let fleet = Arc::new(FleetBackend::with_registry(inner, &service));
        Scheduler {
            cfg,
            fleet,
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
    /// vruntime, step each `quantum` rounds concurrently (fleet runs merge
    /// their sampling through the gate), then preempt unfinished runs if
    /// contention remains. Returns `false` once every run is done.
    pub fn tick(&mut self) -> bool {
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
        let selected = &ready[..width];

        // Activate: build/resume sessions and account for wait time.
        let mut batch: Vec<(usize, Box<RunSession<'a, F>>, bool)> = Vec::with_capacity(width);
        for &i in selected {
            let e = &mut self.entries[i];
            if let Some(since) = e.ready_since.take() {
                e.wait_nanos.add(since.elapsed().as_nanos() as u64);
            }
            if !e.started {
                e.started = true;
                self.admission_latency
                    .add(e.admitted_at.elapsed().as_nanos() as u64);
            }
            let backend: Arc<dyn SamplingBackend<F::Stream>> = match &e.dedicated {
                Some(b) => Arc::clone(b),
                None => self.fleet.clone() as Arc<dyn SamplingBackend<F::Stream>>,
            };
            let uses_fleet = e.dedicated.is_none();
            let session = match std::mem::replace(&mut e.state, State::Pending) {
                State::Pending => {
                    let init = e
                        .init
                        .take()
                        .expect("pending run without an initial simplex");
                    Box::new(RunSession::with_backend(
                        e.objective,
                        init,
                        e.cfg.clone(),
                        e.term,
                        e.mode,
                        e.seed,
                        e.driver,
                        backend,
                    ))
                }
                State::Suspended(payload) => Box::new(
                    RunSession::resume_with_backend(
                        e.objective,
                        e.cfg.clone(),
                        &payload,
                        None,
                        e.driver,
                        backend,
                    )
                    .expect("in-memory checkpoint failed to resume"),
                ),
                State::Resident(s) => s,
                State::Done(_) | State::Quarantined(_) => {
                    unreachable!("done and quarantined runs are filtered from the ready set")
                }
            };
            batch.push((i, session, uses_fleet));
        }

        // Register every fleet participant before any thread starts, so the
        // rendezvous gate knows the tick's population.
        let fleet = Arc::clone(&self.fleet);
        for (_, _, uses_fleet) in &batch {
            if *uses_fleet {
                fleet.enter();
            }
        }
        let finished_slices: Vec<(usize, Box<RunSession<'a, F>>, u64)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = batch
                    .into_iter()
                    .map(|(i, mut session, uses_fleet)| {
                        let fleet = &fleet;
                        scope.spawn(move || {
                            // Leaves the gate even if the objective panics,
                            // so neighbours are not stranded mid-rendezvous.
                            let _ticket = uses_fleet.then(|| FleetTicket::adopt(fleet.as_ref()));
                            let mut steps = 0u64;
                            for _ in 0..quantum {
                                steps += 1;
                                if session.step() == SessionStatus::Finished {
                                    break;
                                }
                            }
                            (i, session, steps)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("scheduler worker panicked"))
                    .collect()
            });

        for (i, session, steps) in finished_slices {
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

    /// Tick until every schedulable run has finished. Quarantined runs stay
    /// parked; call [`readmit`](Self::readmit) and `run` again to finish
    /// them.
    pub fn run(&mut self) {
        while self.tick() {}
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
    /// run (unfinished runs are dropped).
    pub fn into_results(self) -> Vec<(u64, RunResult)> {
        self.entries
            .into_iter()
            .enumerate()
            .filter_map(|(i, e)| match e.state {
                State::Done(res) => Some((i as u64, *res)),
                _ => None,
            })
            .collect()
    }
}
