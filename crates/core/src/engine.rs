//! The shared execution engine for all simplex-family algorithms.
//!
//! The engine owns the simplex vertices, their sampling streams, the virtual
//! clock, the trace, and termination checking. Algorithms (DET/MN/PC/PC+MN/
//! Anderson) are thin decision layers over this engine: they open *trial*
//! slots for prospective points (reflection, expansion, contraction), ask the
//! engine to extend sampling, and accept moves.
//!
//! This mirrors the paper's MW deployment (§3.1): the master holds the
//! simplex logic; each slot corresponds to a worker/vertex whose sampling
//! runs concurrently, so a "round" that extends several slots costs the
//! maximum of the individual extensions in parallel time.
//!
//! Sampling is the one place a run can suspend: the decision layers are
//! `async fn`s, and only the round future in `Engine::dispatch` can return
//! `Pending` — when a driver polls the run instead of letting it sample in
//! place ([`RunSession::poll`](crate::session::RunSession::poll)).

use crate::checkpoint::{self, CheckpointError, CheckpointSink, CheckpointWrite};
use crate::config::{BreakdownAction, NonFinitePolicy, SamplingPolicy, SimplexConfig};
use crate::geometry::{self, ContractionLevel, Ordering};
use crate::metrics::EngineMetrics;
use crate::result::{RunMetrics, RunNote, RunResult};
use crate::termination::{StopReason, Termination};
use crate::trace::{StepKind, Trace, TracePoint};
use std::cell::Cell;
use std::future::{poll_fn, Future};
use std::pin::pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};
use stoch_eval::backend::{SamplingBackend, StreamJob};
use stoch_eval::clock::{TimeMode, VirtualClock};
use stoch_eval::codec::{CodecError, Reader, Writer};
use stoch_eval::objective::{Estimate, SampleStream, StochasticObjective};
use stoch_eval::rng::SeedSequence;
use stoch_eval::stats::EstimatorChoice;

/// Identifier of a slot (vertex or trial) inside the engine.
pub type SlotId = usize;

/// A vertex or trial slot. The stream is `None` only while a round is in
/// flight on the backend (the jobs own the streams in transit).
struct Slot<S> {
    x: Vec<f64>,
    stream: Option<S>,
}

impl<S> Slot<S> {
    fn stream(&self) -> &S {
        self.stream.as_ref().expect("stream in flight")
    }
}

/// A slot is its point, so the geometry reads the simplex in place.
impl<S> AsRef<[f64]> for Slot<S> {
    fn as_ref(&self) -> &[f64] {
        &self.x
    }
}

impl<S> AsMut<[f64]> for Slot<S> {
    fn as_mut(&mut self) -> &mut [f64] {
        &mut self.x
    }
}

/// Where a polled run posts a round and where its driver hands it back
/// extended: one slot, holding whichever side of the round is in transit.
pub(crate) type Mailbox<S> = Arc<Mutex<Option<Vec<StreamJob<S>>>>>;

/// Run a future that cannot suspend — a run sampling in place — to its
/// result.
pub(crate) fn now<T>(fut: impl Future<Output = T>) -> T {
    let mut cx = Context::from_waker(Waker::noop());
    match pin!(fut).poll(&mut cx) {
        Poll::Ready(v) => v,
        Poll::Pending => unreachable!("a run sampling in place never suspends"),
    }
}

/// The round future: post `jobs` to `mailbox` on the first poll, then
/// resolve once the driver has delivered them back extended.
fn round<S>(
    mailbox: &Mailbox<S>,
    jobs: Vec<StreamJob<S>>,
) -> impl Future<Output = Vec<StreamJob<S>>> + '_ {
    let mut jobs = Some(jobs);
    poll_fn(move |_| {
        let mut slot = mailbox.lock().expect("run mailbox poisoned");
        match jobs.take() {
            Some(posted) => {
                *slot = Some(posted);
                Poll::Pending
            }
            None => slot.take().map_or(Poll::Pending, Poll::Ready),
        }
    })
}

/// Execution engine: simplex state + sampling + accounting.
pub struct Engine<'a, F: StochasticObjective> {
    objective: &'a F,
    cfg: SimplexConfig,
    term: Termination,
    slots: Vec<Slot<F::Stream>>,
    n_vertices: usize,
    backend: Arc<dyn SamplingBackend<F::Stream>>,
    clock: VirtualClock,
    seeds: SeedSequence,
    trace: Trace,
    iterations: u64,
    total_sampling: f64,
    level: ContractionLevel,
    metrics: Option<EngineMetrics>,
    /// Iteration at which the last checkpoint was written, or handed to
    /// `sink` (0 = never).
    last_ckpt: u64,
    /// Takes due checkpoint writes instead of an inline `checkpoint::save`.
    sink: Option<CheckpointSink>,
    /// Notes accumulated so far (including those carried over a resume).
    notes: Vec<RunNote>,
    /// Non-finite samples observed across all dispatches so far.
    nonfinite_seen: u64,
    /// Set under [`NonFinitePolicy::FailFast`] once a non-finite sample is
    /// seen; surfaces as [`StopReason::NonFinite`] at the next budget check.
    poisoned: bool,
    /// Set once the breakdown policy ([`BreakdownAction::SwitchRobust`]) has
    /// switched the run's streams to the robust estimator. Persisted in
    /// snapshots so streams opened after a resume get the same estimator a
    /// solo run would give them.
    forced_robust: bool,
    /// Metrics summary carried over a resume, replayed into the registry
    /// handles by [`Engine::attach_metrics`].
    restored_metrics: Option<RunMetrics>,
    /// `Some` while a driver polls the run: rounds are posted here instead
    /// of sampling in place on `backend`.
    pub(crate) mailbox: Option<Mailbox<F::Stream>>,
    /// The vertex-set diameter, computed on first use after the vertices
    /// last moved; [`Engine::replace_vertex`] and [`Engine::collapse`]
    /// empty it. Derived state, never persisted.
    diameter: Cell<Option<f64>>,
    /// Round buffers reused by every round: the plan (slot, `dt`), and the
    /// jobs the streams travel in, which `SerialBackend` hands back.
    plan: Vec<(SlotId, f64)>,
    jobs: Vec<StreamJob<F::Stream>>,
}

/// Panic on a run spec [`SimplexConfig::validate_start`] refuses.
///
/// Out of line on purpose: the generic constructor inlines into callers'
/// step loops, and with the check's `Result` handling inlined beside them
/// perfbench `solo_serial` read ~3% slower per run (2-core x86 host).
#[inline(never)]
fn check_start(cfg: &SimplexConfig, d: usize, init: &[Vec<f64>]) {
    if let Err(e) = cfg.validate_start(d, init) {
        panic!("{e}");
    }
}

impl<'a, F: StochasticObjective> Engine<'a, F> {
    /// Build an engine over `objective` from an initial simplex.
    ///
    /// Every vertex is opened and given one initial sample of duration
    /// `cfg.sampling.initial_dt`, concurrently (one parallel round).
    pub fn new(
        objective: &'a F,
        init: Vec<Vec<f64>>,
        cfg: SimplexConfig,
        term: Termination,
        mode: TimeMode,
        seed: u64,
    ) -> Self {
        let backend = cfg.build_backend();
        Self::new_with_backend(objective, init, cfg, term, mode, seed, backend)
    }

    /// Like [`Engine::new`], but dispatching rounds on an injected backend
    /// instead of the one `cfg` would build: the seam that puts a run on a
    /// shared or dedicated backend.
    ///
    /// # Panics
    /// On a malformed initial simplex, invalid coefficients or an invalid
    /// sampling policy (see
    /// [`SimplexConfig::validate_start`](crate::config::SimplexConfig::validate_start)
    /// for the fallible form of the check).
    pub fn new_with_backend(
        objective: &'a F,
        init: Vec<Vec<f64>>,
        cfg: SimplexConfig,
        term: Termination,
        mode: TimeMode,
        seed: u64,
        backend: Arc<dyn SamplingBackend<F::Stream>>,
    ) -> Self {
        let d = objective.dim();
        check_start(&cfg, d, &init);

        let mut seeds = SeedSequence::new(seed);
        let mut slots = Vec::with_capacity(d + 3);
        for x in init {
            let stream = Some(objective.open(&x, seeds.next_seed()));
            slots.push(Slot { x, stream });
        }
        let mut eng = Engine {
            objective,
            cfg,
            term,
            slots,
            n_vertices: d + 1,
            backend,
            clock: VirtualClock::new(mode),
            seeds,
            trace: Trace::new(),
            iterations: 0,
            total_sampling: 0.0,
            level: ContractionLevel::default(),
            metrics: None,
            last_ckpt: 0,
            sink: None,
            notes: Vec::new(),
            nonfinite_seen: 0,
            poisoned: false,
            forced_robust: false,
            restored_metrics: None,
            mailbox: None,
            diameter: Cell::new(None),
            plan: Vec::new(),
            jobs: Vec::new(),
        };
        for i in 0..eng.n_vertices {
            eng.configure_slot_stream(i);
        }
        now(eng.extend_vertices());
        eng
    }

    /// The estimator newly-opened streams should report through, when the
    /// engine wants something other than the stream's own default: the
    /// configured [`SimplexConfig::estimator`] when it is non-Welford, or —
    /// once the breakdown policy has tripped — the robust fallback.
    fn stream_estimator(&self) -> Option<EstimatorChoice> {
        if self.forced_robust {
            Some(self.robust_choice())
        } else if self.cfg.estimator != EstimatorChoice::Welford {
            Some(self.cfg.estimator)
        } else {
            None
        }
    }

    /// The robust estimator the breakdown policy degrades to: the configured
    /// estimator when it is already robust, otherwise the crate default
    /// (median-of-means).
    fn robust_choice(&self) -> EstimatorChoice {
        if self.cfg.estimator == EstimatorChoice::Welford {
            EstimatorChoice::ROBUST_DEFAULT
        } else {
            self.cfg.estimator
        }
    }

    /// Apply the engine's estimator preference to a freshly-opened slot
    /// stream (a no-op for streams without per-sample statistics).
    fn configure_slot_stream(&mut self, id: SlotId) {
        if let Some(choice) = self.stream_estimator() {
            if let Some(s) = self.slots[id].stream.as_mut() {
                s.set_estimator(choice);
            }
        }
    }

    /// Attach run-accounting handles. All subsequent engine activity (and
    /// any algorithm-level site accounting) is recorded both into the
    /// originating registry and into the [`RunResult::metrics`] summary.
    ///
    /// [`RunResult::metrics`]: crate::result::RunResult::metrics
    pub fn attach_metrics(&mut self, metrics: EngineMetrics) {
        // A resumed engine replays its persisted accounting first, so the
        // final summary equals an uninterrupted run's.
        if let Some(prior) = self.restored_metrics.take() {
            metrics.absorb(&prior);
        }
        self.metrics = Some(metrics);
    }

    /// The attached run-accounting handles, if any.
    pub fn metrics(&self) -> Option<&EngineMetrics> {
        self.metrics.as_ref()
    }

    /// Dimensionality of the parameter space.
    pub fn dim(&self) -> usize {
        self.n_vertices - 1
    }

    /// Number of simplex vertices (`d + 1`).
    pub fn n_vertices(&self) -> usize {
        self.n_vertices
    }

    /// The configured sampling policy.
    pub fn sampling(&self) -> SamplingPolicy {
        self.cfg.sampling
    }

    /// The simplex configuration.
    pub fn config(&self) -> &SimplexConfig {
        &self.cfg
    }

    /// The point held by a slot.
    pub fn point(&self, id: SlotId) -> &[f64] {
        &self.slots[id].x
    }

    /// Current estimate at a slot.
    pub fn estimate(&self, id: SlotId) -> Estimate {
        self.slots[id].stream().estimate()
    }

    /// Estimates at all simplex vertices (ids `0..n_vertices`).
    pub fn vertex_estimates(&self) -> Vec<Estimate> {
        (0..self.n_vertices).map(|i| self.estimate(i)).collect()
    }

    /// Rank vertices by observed value.
    pub fn ordering(&self) -> Ordering {
        geometry::order_by(self.n_vertices, |i| self.estimate(i).value)
    }

    /// Centroid of all vertices except `exclude`.
    pub fn centroid_excluding(&self, exclude: usize) -> Vec<f64> {
        geometry::centroid_excluding(&self.slots[..self.n_vertices], exclude)
    }

    /// Simplex diameter (Eq. 2.2), computed once per change of the vertex
    /// set.
    pub fn diameter(&self) -> f64 {
        if let Some(d) = self.diameter.get() {
            return d;
        }
        let d = geometry::diameter(&self.slots[..self.n_vertices]);
        self.diameter.set(Some(d));
        d
    }

    /// Open a *trial* slot at `x` (reflection/expansion/contraction point).
    /// The stream starts unsampled; callers extend it before comparing.
    pub fn open_trial(&mut self, x: Vec<f64>) -> SlotId {
        if let Some(m) = &self.metrics {
            m.trials_opened.inc();
        }
        let seed = self.seeds.next_seed();
        let stream = Some(self.objective.open(&x, seed));
        self.slots.push(Slot { x, stream });
        let id = self.slots.len() - 1;
        self.configure_slot_stream(id);
        id
    }

    /// All currently-open trial slot ids.
    pub fn trial_ids(&self) -> Vec<SlotId> {
        (self.n_vertices..self.slots.len()).collect()
    }

    /// Plan one concurrent round driven by the listed slots into `plan`:
    /// which slots extend, and by how much.
    ///
    /// The listed slots drive the round: its duration is the maximum of
    /// their policy-scheduled increments. In parallel mode with continuous
    /// sampling enabled (the MW deployment), *every* active slot — vertex or
    /// trial — samples for the full round window, because workers never sit
    /// idle while the master deliberates; the parallel-time cost is still
    /// one round. Otherwise only the listed slots extend.
    fn plan_round(&self, ids: impl Iterator<Item = SlotId> + Clone, plan: &mut Vec<(SlotId, f64)>) {
        plan.clear();
        if ids.clone().next().is_none() {
            return;
        }
        let policy = self.cfg.sampling;
        let piggyback = self.cfg.continuous && self.clock.mode() == TimeMode::Parallel;
        if piggyback {
            let dt_round = ids
                .map(|id| policy.next_dt(self.estimate(id).time))
                .fold(0.0f64, f64::max);
            plan.extend((0..self.slots.len()).map(|id| (id, dt_round)));
        } else {
            plan.extend(ids.map(|id| (id, policy.next_dt(self.estimate(id).time))));
        }
    }

    /// Execute a planned round: streams move into jobs, the batch runs
    /// (in place on the backend, or posted through the mailbox while a
    /// driver polls the run), and the returned streams are restored with
    /// clock/total-sampling charges applied in submission order — the fixed
    /// order that keeps accounting bit-identical across backends.
    async fn dispatch(&mut self, plan: &[(SlotId, f64)]) {
        if plan.is_empty() {
            return;
        }
        let sampled_before = self.total_sampling;
        let nf_before: u64 = plan
            .iter()
            .map(|&(slot, _)| self.slots[slot].stream().nonfinite_samples())
            .sum();
        let mut jobs = std::mem::take(&mut self.jobs);
        jobs.extend(plan.iter().map(|&(slot, dt)| StreamJob {
            slot,
            dt,
            stream: self.slots[slot].stream.take().expect("stream in flight"),
        }));
        self.clock.begin_round();
        let mut done = match &self.mailbox {
            None => self.backend.extend_batch(jobs),
            Some(mailbox) => round(mailbox, jobs).await,
        };
        for job in done.drain(..) {
            self.clock.charge(job.dt);
            self.total_sampling += job.dt;
            self.slots[job.slot].stream = Some(job.stream);
        }
        self.jobs = done;
        self.clock.end_round();
        if let Some(m) = &self.metrics {
            m.rounds.inc();
            m.sampling_time.add(self.total_sampling - sampled_before);
        }
        let nf_after: u64 = plan
            .iter()
            .map(|&(slot, _)| self.slots[slot].stream().nonfinite_samples())
            .sum();
        let delta = nf_after.saturating_sub(nf_before);
        if delta > 0 {
            self.nonfinite_seen += delta;
            if let Some(m) = &self.metrics {
                m.nonfinite.add(delta);
            }
            self.note(RunNote::NonFiniteSample);
            if self.cfg.nonfinite == NonFinitePolicy::FailFast {
                self.poisoned = true;
            }
        }
        self.check_breakdown(plan);
    }

    /// Breakdown-aware gating (DESIGN.md §14): after a round, scan the
    /// extended slots' tail diagnostics against the configured
    /// [`BreakdownPolicy`](crate::config::BreakdownPolicy). A crossing
    /// records [`RunNote::NoiseSuspect`] and, under
    /// [`BreakdownAction::SwitchRobust`], switches every live stream to the
    /// robust estimator (once per run). The diagnostic depends only on
    /// stream state, so the check — like everything downstream of it — is
    /// bit-identical across backends.
    fn check_breakdown(&mut self, plan: &[(SlotId, f64)]) {
        if self.cfg.breakdown.action == BreakdownAction::Off {
            return;
        }
        let crossed = plan.iter().any(|&(slot, _)| {
            self.slots[slot]
                .stream()
                .tail_report()
                .is_some_and(|t| self.cfg.breakdown.crossed(&t))
        });
        if !crossed {
            return;
        }
        self.note(RunNote::NoiseSuspect);
        if let Some(m) = &self.metrics {
            m.tail_flag_rounds.inc();
        }
        if self.cfg.breakdown.action == BreakdownAction::SwitchRobust && !self.forced_robust {
            self.forced_robust = true;
            if let Some(m) = &self.metrics {
                m.tail_switches.inc();
            }
            let choice = self.robust_choice();
            for slot in &mut self.slots {
                if let Some(s) = slot.stream.as_mut() {
                    s.set_estimator(choice);
                }
            }
        }
    }

    /// Extend sampling for one concurrent round (see `Engine::plan_round`
    /// for which slots extend and by how much).
    pub async fn extend_round(&mut self, ids: &[SlotId]) {
        self.extend_slots(ids.iter().copied()).await;
    }

    /// [`extend_round`](Self::extend_round) driven by every vertex.
    pub(crate) async fn extend_vertices(&mut self) {
        self.extend_slots(0..self.n_vertices).await;
    }

    /// One round driven by `ids`, planned into the engine's plan buffer.
    async fn extend_slots(&mut self, ids: impl Iterator<Item = SlotId> + Clone) {
        let mut plan = std::mem::take(&mut self.plan);
        self.plan_round(ids, &mut plan);
        self.dispatch(&plan).await;
        self.plan = plan;
    }

    /// Keep extending slot `id` (alone) until its standard error is at most
    /// `target`.
    ///
    /// Respects the termination budget: each round is clamped to the
    /// remaining wall-time budget, so the clock can never overshoot
    /// `max_time` mid-wait. Returns the final estimate plus the stop reason
    /// if the budget ran out (or the wait stalled) before the target was
    /// reached. Samples in place on the engine's backend.
    pub fn extend_until(&mut self, id: SlotId, target: f64) -> (Estimate, Option<StopReason>) {
        let mut guard = 0u32;
        loop {
            if self.estimate(id).std_err <= target {
                return (self.estimate(id), None);
            }
            if let Some(r) = self.budget_stop() {
                return (self.estimate(id), Some(r));
            }
            if guard >= 10_000 {
                return (self.estimate(id), Some(StopReason::Stalled));
            }
            let mut plan = std::mem::take(&mut self.plan);
            self.plan_round(std::iter::once(id), &mut plan);
            if let Some(max_time) = self.term.max_time {
                // budget_stop above guarantees remaining > 0 here.
                let remaining = max_time - self.clock.elapsed();
                for (_, dt) in &mut plan {
                    *dt = dt.min(remaining);
                }
            }
            now(self.dispatch(&plan));
            self.plan = plan;
            guard += 1;
        }
    }

    /// Accept a trial into vertex position `v`: the trial's point and its
    /// accumulated sampling move into the vertex slot.
    pub fn replace_vertex(&mut self, v: usize, trial: SlotId) {
        assert!(v < self.n_vertices && trial >= self.n_vertices);
        self.slots.swap(v, trial);
        self.diameter.set(None);
    }

    /// Discard all trial slots (their sampling is abandoned, as when the
    /// master directs "a cessation of work at one point").
    pub fn drop_trials(&mut self) {
        if let Some(m) = &self.metrics {
            let dropped = self.slots.len().saturating_sub(self.n_vertices);
            m.trials_dropped.add(dropped as u64);
        }
        self.slots.truncate(self.n_vertices);
    }

    /// Collapse the simplex towards vertex `keep` (Algorithm 1 lines 19–22):
    /// every other vertex moves halfway towards it and restarts sampling
    /// from scratch at its new location (one concurrent round).
    pub async fn collapse(&mut self, keep: usize) {
        let n = self.n_vertices;
        geometry::collapse_towards(&mut self.slots[..n], keep, self.cfg.coefficients.beta);
        self.diameter.set(None);
        let fresh = (0..n).filter(move |&i| i != keep);
        for i in fresh.clone() {
            let seed = self.seeds.next_seed();
            self.slots[i].stream = Some(self.objective.open(&self.slots[i].x, seed));
            self.configure_slot_stream(i);
        }
        self.extend_slots(fresh).await;
        self.level.on_collapse(self.dim());
    }

    /// Contraction-level bookkeeping (read).
    pub fn level(&self) -> ContractionLevel {
        self.level
    }

    /// Contraction-level bookkeeping (write).
    pub fn level_mut(&mut self) -> &mut ContractionLevel {
        &mut self.level
    }

    /// Record a completed iteration with the accepted step kind.
    pub fn record(&mut self, step: StepKind) {
        if let Some(m) = &self.metrics {
            m.record_step(step);
        }
        self.iterations += 1;
        let best = self.ordering().min;
        let e = self.estimate(best);
        self.trace.push(TracePoint {
            time: self.clock.elapsed(),
            iteration: self.iterations,
            best_observed: e.value,
            best_true: self.objective.true_value(self.point(best)),
            diameter: self.diameter(),
            step,
        });
    }

    /// Completed iterations so far.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Elapsed virtual time.
    pub fn elapsed(&self) -> f64 {
        self.clock.elapsed()
    }

    /// Check the time/iteration budget (used inside resampling loops).
    /// A poisoned run (FailFast non-finite policy) stops here too, so every
    /// wait loop exits promptly.
    pub fn budget_stop(&self) -> Option<StopReason> {
        if self.poisoned {
            return Some(StopReason::NonFinite);
        }
        self.term
            .budget_exceeded(self.clock.elapsed(), self.iterations)
    }

    /// Full termination check: Eq. 2.9 spread first, then geometric
    /// degeneracy, then budgets.
    pub fn should_stop(&self) -> Option<StopReason> {
        if self
            .term
            .spread_met_by(self.n_vertices, |i| self.estimate(i).value)
        {
            return Some(StopReason::Tolerance);
        }
        if self.is_degenerate() {
            return Some(StopReason::Degenerate);
        }
        self.budget_stop()
    }

    /// True when the simplex has collapsed below machine precision: its
    /// diameter is non-finite or at most `ε` times the coordinate scale, so
    /// no reflection/contraction can produce a geometrically distinct point
    /// and further iterations only spin. Surfaced as
    /// [`StopReason::Degenerate`]; under a
    /// [`RestartedSimplex`](crate::restart::RestartedSimplex) this triggers
    /// a fresh start like any other stop.
    pub fn is_degenerate(&self) -> bool {
        let dia = self.diameter();
        if !dia.is_finite() {
            return true;
        }
        let scale = self
            .slots
            .iter()
            .take(self.n_vertices)
            .flat_map(|s| s.x.iter())
            .fold(1.0f64, |m, &c| m.max(c.abs()));
        dia <= f64::EPSILON * scale
    }

    /// Record a note, once per kind per run.
    fn note(&mut self, n: RunNote) {
        if !self.notes.contains(&n) {
            self.notes.push(n);
        }
    }

    /// Record a note from outside the engine (resume fallback, scheduler
    /// quarantine). Deduplicated per kind like internally-raised notes, and
    /// carried through snapshots and the final [`RunResult`] identically.
    pub fn record_note(&mut self, n: RunNote) {
        self.note(n);
    }

    /// Non-finite samples observed so far across all dispatches.
    pub fn nonfinite_seen(&self) -> u64 {
        self.nonfinite_seen
    }

    /// Finish the run, consuming the engine.
    pub fn finish(self, stop: StopReason) -> RunResult {
        let best = self.ordering().min;
        let mut notes = self.notes;
        for n in crate::result::notes_from_backend(&*self.backend) {
            if !notes.contains(&n) {
                notes.push(n);
            }
        }
        RunResult {
            best_point: self.slots[best].x.clone(),
            best_observed: self.slots[best].stream().estimate().value,
            iterations: self.iterations,
            elapsed: self.clock.elapsed(),
            total_sampling: self.total_sampling,
            stop,
            trace: self.trace,
            metrics: self.metrics.as_ref().map(EngineMetrics::summary),
            notes,
        }
    }
}

/// Checkpoint/resume (DESIGN.md §11). The engine's complete run state —
/// simplex geometry, per-slot stream state (RNG words, spare normal,
/// sufficient statistics), virtual clock, counters, seeds, trace, notes,
/// and accounting — round-trips through the `stoch_eval::codec` byte format
/// so a resumed run is bit-identical to one that never stopped.
impl<'a, F: StochasticObjective> Engine<'a, F> {
    /// Serialize the complete run state.
    ///
    /// Must be called between rounds (no streams in flight, which is every
    /// point where algorithm loops run); the first 16 bytes are the
    /// iteration count and elapsed time so [`checkpoint::inspect`] can
    /// summarize a file cheaply. Fails with [`CodecError::Unsupported`] when
    /// the stream type does not implement persistence.
    pub fn snapshot(&self) -> Result<Vec<u8>, CodecError> {
        let mut w = Writer::new();
        w.put_u64(self.iterations);
        w.put_f64(self.clock.elapsed());
        w.put_u8(match self.clock.mode() {
            TimeMode::Parallel => 0,
            TimeMode::Serial => 1,
        });
        w.put_f64(self.total_sampling);
        w.put_i64(self.level.0);
        w.put_u64(self.nonfinite_seen);
        w.put_bool(self.poisoned);
        w.put_bool(self.forced_robust);
        w.put_opt_f64(self.term.tolerance);
        w.put_opt_f64(self.term.max_time);
        w.put_opt_u64(self.term.max_iterations);
        w.put_u64(self.n_vertices as u64);
        w.put_u64(self.slots.len() as u64);
        for slot in &self.slots {
            w.put_f64_slice(&slot.x);
            let mut sw = Writer::new();
            slot.stream().save_state(&mut sw)?;
            w.put_bytes(&sw.into_bytes());
        }
        let (parent, next) = self.seeds.state();
        w.put_u64(parent);
        w.put_u64(next);
        w.put_u64(self.trace.len() as u64);
        for p in self.trace.points() {
            w.put_f64(p.time);
            w.put_u64(p.iteration);
            w.put_f64(p.best_observed);
            w.put_opt_f64(p.best_true);
            w.put_f64(p.diameter);
            w.put_u8(step_tag(p.step));
        }
        // Backend-reported notes merge in so e.g. a pre-checkpoint
        // degradation survives the resume (the fresh backend won't re-report
        // it).
        let mut notes = self.notes.clone();
        for n in crate::result::notes_from_backend(&*self.backend) {
            if !notes.contains(&n) {
                notes.push(n);
            }
        }
        w.put_u64(notes.len() as u64);
        for n in &notes {
            w.put_u8(note_tag(*n));
        }
        match &self.metrics {
            Some(m) => {
                w.put_bool(true);
                write_metrics(&mut w, &m.summary());
            }
            None => w.put_bool(false),
        }
        Ok(w.into_bytes())
    }

    /// Reconstruct an engine from a [`snapshot`](Self::snapshot) payload.
    ///
    /// The restored engine continues exactly where the snapshot was taken:
    /// same vertices, same stream statistics and RNG positions, same clock
    /// and counters — so the remainder of the run is bit-identical to one
    /// that never stopped. `term_override` replaces the persisted
    /// termination criteria (a snapshot from a truncated run would otherwise
    /// stop immediately); `None` keeps them.
    pub fn resume(
        objective: &'a F,
        cfg: SimplexConfig,
        payload: &[u8],
        term_override: Option<Termination>,
    ) -> Result<Self, CheckpointError> {
        let backend = cfg.build_backend();
        Self::resume_with_backend(objective, cfg, payload, term_override, backend)
    }

    /// Like [`Engine::resume`], but dispatching rounds on an injected
    /// backend. The snapshot carries no backend state (streams are restored
    /// master-side), so a suspended run can resume on a *different* backend
    /// — serial to threaded, solo to shared fleet — and the determinism
    /// contract keeps the remainder bit-identical.
    pub fn resume_with_backend(
        objective: &'a F,
        cfg: SimplexConfig,
        payload: &[u8],
        term_override: Option<Termination>,
        backend: Arc<dyn SamplingBackend<F::Stream>>,
    ) -> Result<Self, CheckpointError> {
        cfg.coefficients
            .validate()
            .map_err(CheckpointError::Mismatch)?;
        cfg.sampling.validate().map_err(CheckpointError::Mismatch)?;
        let d = objective.dim();
        let mut r = Reader::new(payload);
        let iterations = r.take_u64()?;
        let elapsed = r.take_f64()?;
        let mode = match r.take_u8()? {
            0 => TimeMode::Parallel,
            1 => TimeMode::Serial,
            tag => {
                return Err(CodecError::Tag {
                    what: "TimeMode",
                    tag,
                }
                .into())
            }
        };
        let total_sampling = r.take_f64()?;
        let level = ContractionLevel(r.take_i64()?);
        let nonfinite_seen = r.take_u64()?;
        let poisoned = r.take_bool()?;
        let forced_robust = r.take_bool()?;
        let term = Termination {
            tolerance: r.take_opt_f64()?,
            max_time: r.take_opt_f64()?,
            max_iterations: r.take_opt_u64()?,
        };
        let n_vertices = r.take_u64()? as usize;
        if n_vertices != d + 1 {
            return Err(CheckpointError::Mismatch(format!(
                "snapshot has {n_vertices} vertices but the objective needs {}",
                d + 1
            )));
        }
        let n_slots = r.take_u64()? as usize;
        if n_slots < n_vertices {
            return Err(CheckpointError::Mismatch(format!(
                "snapshot has {n_slots} slots for {n_vertices} vertices"
            )));
        }
        let mut slots = Vec::with_capacity(n_slots);
        for i in 0..n_slots {
            let x = r.take_f64_vec()?;
            if x.len() != d {
                return Err(CheckpointError::Mismatch(format!(
                    "slot {i} has dimension {} but the objective has {d}",
                    x.len()
                )));
            }
            let bytes = r.take_bytes()?;
            let mut sr = Reader::new(bytes);
            let stream = F::Stream::load_state(&mut sr)?;
            sr.finish()?;
            slots.push(Slot {
                x,
                stream: Some(stream),
            });
        }
        let seeds = SeedSequence::from_state(r.take_u64()?, r.take_u64()?);
        let n_trace = r.take_u64()? as usize;
        // Bound preallocation by what the payload could actually hold
        // (>= 26 bytes per point), mirroring the codec's own guards.
        if n_trace > payload.len() / 26 + 1 {
            return Err(CodecError::Invalid {
                what: "trace length",
            }
            .into());
        }
        let mut trace = Trace::new();
        for _ in 0..n_trace {
            trace.push(TracePoint {
                time: r.take_f64()?,
                iteration: r.take_u64()?,
                best_observed: r.take_f64()?,
                best_true: r.take_opt_f64()?,
                diameter: r.take_f64()?,
                step: step_from_tag(r.take_u8()?)?,
            });
        }
        let n_notes = r.take_u64()? as usize;
        if n_notes > 16 {
            return Err(CodecError::Invalid { what: "note count" }.into());
        }
        let mut notes = Vec::with_capacity(n_notes);
        for _ in 0..n_notes {
            notes.push(note_from_tag(r.take_u8()?)?);
        }
        let restored_metrics = if r.take_bool()? {
            Some(read_metrics(&mut r)?)
        } else {
            None
        };
        r.finish()?;

        Ok(Engine {
            objective,
            cfg,
            term: term_override.unwrap_or(term),
            slots,
            n_vertices,
            backend,
            clock: VirtualClock::with_elapsed(mode, elapsed),
            seeds,
            trace,
            iterations,
            total_sampling,
            level,
            metrics: None,
            // Suppress an immediate re-write of the checkpoint we just
            // resumed from.
            last_ckpt: iterations,
            sink: None,
            notes,
            nonfinite_seen,
            poisoned,
            forced_robust,
            restored_metrics,
            mailbox: None,
            diameter: Cell::new(None),
            plan: Vec::new(),
            jobs: Vec::new(),
        })
    }

    /// Hand this run's due checkpoint writes to `sink` instead of writing
    /// them inline.
    pub(crate) fn set_checkpoint_sink(&mut self, sink: CheckpointSink) {
        self.sink = Some(sink);
    }

    /// Write a checkpoint if the configured cadence says one is due: with
    /// [`checkpoint::save`] on this thread, or through the session's
    /// [checkpoint sink](crate::session::RunSession::set_checkpoint_sink).
    ///
    /// Called by every algorithm loop between iterations. Failures never
    /// stop the run — checkpointing is best-effort — but are recorded once
    /// as [`RunNote::CheckpointFailed`].
    pub fn checkpoint_if_due(&mut self) {
        let due = match &self.cfg.checkpoint {
            None => false,
            Some(ck) => {
                self.iterations > 0
                    && self.iterations.is_multiple_of(ck.every.max(1))
                    && self.iterations != self.last_ckpt
            }
        };
        if due {
            self.write_checkpoint();
        }
    }

    /// Snapshot the run and write it, inline or through the sink.
    ///
    /// Out of line on purpose, like `check_start`: inlined, the snapshot
    /// and both write paths land in every monomorphized step body, and
    /// perfbench `solo_serial`, which never checkpoints, read +5%
    /// `run_ms_p50` (median of four pairs; out of line, −3% over ten;
    /// 2-core x86 host).
    #[inline(never)]
    fn write_checkpoint(&mut self) {
        let Some(ck) = &self.cfg.checkpoint else {
            return;
        };
        let (path, retain) = (ck.path.clone(), ck.retain);
        let written = self
            .snapshot()
            .map_err(CheckpointError::from)
            .and_then(|payload| match &mut self.sink {
                Some(sink) => sink(CheckpointWrite {
                    path,
                    retain,
                    payload,
                }),
                None => {
                    checkpoint::save(&path, retain, &payload)?;
                    if let Some(m) = &self.metrics {
                        m.ckpt_writes.inc();
                    }
                    Ok(())
                }
            });
        match written {
            Ok(()) => self.last_ckpt = self.iterations,
            Err(_) => self.note(RunNote::CheckpointFailed),
        }
    }
}

fn step_tag(s: StepKind) -> u8 {
    match s {
        StepKind::Reflect => 0,
        StepKind::Expand => 1,
        StepKind::Contract => 2,
        StepKind::Collapse => 3,
    }
}

fn step_from_tag(tag: u8) -> Result<StepKind, CodecError> {
    Ok(match tag {
        0 => StepKind::Reflect,
        1 => StepKind::Expand,
        2 => StepKind::Contract,
        3 => StepKind::Collapse,
        tag => {
            return Err(CodecError::Tag {
                what: "StepKind",
                tag,
            })
        }
    })
}

fn note_tag(n: RunNote) -> u8 {
    match n {
        RunNote::DegradedToSerial => 0,
        RunNote::NonFiniteSample => 1,
        RunNote::CheckpointFailed => 2,
        RunNote::TransportDegraded => 3,
        RunNote::NoiseSuspect => 4,
        RunNote::Quarantined => 5,
        RunNote::CheckpointFellBack => 6,
    }
}

fn note_from_tag(tag: u8) -> Result<RunNote, CodecError> {
    Ok(match tag {
        0 => RunNote::DegradedToSerial,
        1 => RunNote::NonFiniteSample,
        2 => RunNote::CheckpointFailed,
        3 => RunNote::TransportDegraded,
        4 => RunNote::NoiseSuspect,
        5 => RunNote::Quarantined,
        6 => RunNote::CheckpointFellBack,
        tag => {
            return Err(CodecError::Tag {
                what: "RunNote",
                tag,
            })
        }
    })
}

fn write_metrics(w: &mut Writer, m: &RunMetrics) {
    w.put_u64(m.steps_reflect);
    w.put_u64(m.steps_expand);
    w.put_u64(m.steps_contract);
    w.put_u64(m.steps_collapse);
    w.put_u64(m.trials_opened);
    w.put_u64(m.trials_dropped);
    w.put_u64(m.rounds);
    w.put_f64(m.sampling_time);
    for i in 0..7 {
        w.put_u64(m.site_decided_true[i]);
        w.put_u64(m.site_decided_false[i]);
        w.put_u64(m.site_undecided_resample[i]);
        w.put_f64(m.site_resample_time[i]);
    }
    w.put_u64(m.mn_gate_checks);
    w.put_u64(m.mn_gate_failures);
    w.put_u64(m.mn_extension_rounds);
    w.put_f64(m.mn_equalize_time);
    w.put_u64(m.nonfinite);
    w.put_u64(m.tail_flag_rounds);
    w.put_u64(m.tail_switches);
}

fn read_metrics(r: &mut Reader<'_>) -> Result<RunMetrics, CodecError> {
    let mut m = RunMetrics {
        steps_reflect: r.take_u64()?,
        steps_expand: r.take_u64()?,
        steps_contract: r.take_u64()?,
        steps_collapse: r.take_u64()?,
        trials_opened: r.take_u64()?,
        trials_dropped: r.take_u64()?,
        rounds: r.take_u64()?,
        sampling_time: r.take_f64()?,
        ..RunMetrics::default()
    };
    for i in 0..7 {
        m.site_decided_true[i] = r.take_u64()?;
        m.site_decided_false[i] = r.take_u64()?;
        m.site_undecided_resample[i] = r.take_u64()?;
        m.site_resample_time[i] = r.take_f64()?;
    }
    m.mn_gate_checks = r.take_u64()?;
    m.mn_gate_failures = r.take_u64()?;
    m.mn_extension_rounds = r.take_u64()?;
    m.mn_equalize_time = r.take_f64()?;
    m.nonfinite = r.take_u64()?;
    m.tail_flag_rounds = r.take_u64()?;
    m.tail_switches = r.take_u64()?;
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimplexConfig;
    use proptest::prelude::*;
    use stoch_eval::functions::{Rosenbrock, Sphere};
    use stoch_eval::noise::{ConstantNoise, ZeroNoise};
    use stoch_eval::sampler::Noisy;

    fn engine_for<'a>(obj: &'a Noisy<Sphere, ZeroNoise>) -> Engine<'a, Noisy<Sphere, ZeroNoise>> {
        let init = vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0]];
        Engine::new(
            obj,
            init,
            SimplexConfig::default(),
            Termination::default(),
            TimeMode::Parallel,
            1,
        )
    }

    #[test]
    fn initial_round_samples_all_vertices() {
        let obj = Noisy::new(Sphere::new(2), ZeroNoise);
        let eng = engine_for(&obj);
        for e in eng.vertex_estimates() {
            assert_eq!(e.time, 1.0);
        }
        // Parallel mode: three concurrent dt=1 samples cost 1 unit.
        assert_eq!(eng.elapsed(), 1.0);
    }

    #[test]
    fn ordering_and_centroid() {
        let obj = Noisy::new(Sphere::new(2), ZeroNoise);
        let eng = engine_for(&obj);
        let o = eng.ordering();
        assert_eq!(o.min, 0); // f(0,0)=0
                              // max is one of the two value-1 vertices (tie broken by index).
        assert_eq!(o.max, 2);
        let c = eng.centroid_excluding(o.max);
        assert_eq!(c, vec![0.5, 0.0]);
    }

    #[test]
    fn trial_accept_moves_sampling() {
        let obj = Noisy::new(Sphere::new(2), ZeroNoise);
        let mut eng = engine_for(&obj);
        let t = eng.open_trial(vec![0.25, 0.25]);
        now(eng.extend_round(&[t]));
        now(eng.extend_round(&[t]));
        let before = eng.estimate(t).time;
        eng.replace_vertex(2, t);
        eng.drop_trials();
        assert_eq!(eng.estimate(2).time, before);
        assert_eq!(eng.point(2), &[0.25, 0.25]);
        assert_eq!(eng.trial_ids().len(), 0);
    }

    #[test]
    fn collapse_moves_points_and_resets_streams() {
        let obj = Noisy::new(Sphere::new(2), ZeroNoise);
        let mut eng = engine_for(&obj);
        // Age vertex 1's stream so we can see it reset.
        now(eng.extend_round(&[1]));
        assert!(eng.estimate(1).time > 1.0);
        now(eng.collapse(0));
        assert_eq!(eng.point(1), &[0.5, 0.0]);
        assert_eq!(eng.point(2), &[0.0, 0.5]);
        assert_eq!(eng.estimate(1).time, 1.0); // fresh stream, one dt0 sample
        assert_eq!(eng.level().0, 2); // l += d
    }

    #[test]
    fn extend_until_hits_target() {
        // Pinned Gaussian: the `time >= sigma0^2 / target^2` bound assumes
        // the Gaussian oracle stream, not an NSX_NOISE chaos distribution.
        let obj = Noisy::gaussian(Sphere::new(2), ConstantNoise(10.0));
        let init = vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0]];
        let mut eng = Engine::new(
            &obj,
            init,
            SimplexConfig::default(),
            Termination::default(),
            TimeMode::Parallel,
            2,
        );
        let (e, stop) = eng.extend_until(0, 1.0);
        assert!(stop.is_none());
        assert!(e.std_err <= 1.0);
        assert!(e.time >= 100.0); // sigma0^2 / target^2
    }

    #[test]
    fn extend_until_clamps_to_wall_time_budget() {
        // High sigma0 + tiny target: the wait can never reach the target
        // within the budget. The rounds must be clamped so elapsed lands
        // exactly on max_time, and the budget stop must be surfaced.
        let obj = Noisy::new(Sphere::new(2), ConstantNoise(100.0));
        let init = vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0]];
        let mut eng = Engine::new(
            &obj,
            init,
            SimplexConfig::default(),
            Termination {
                tolerance: None,
                max_time: Some(50.0),
                max_iterations: None,
            },
            TimeMode::Parallel,
            4,
        );
        let (e, stop) = eng.extend_until(0, 1e-9);
        assert_eq!(stop, Some(StopReason::WallTime));
        assert!(e.std_err > 1e-9);
        assert_eq!(eng.elapsed(), 50.0, "clock overshot the budget");
    }

    #[test]
    fn spread_termination_on_zero_noise() {
        let obj = Noisy::new(Sphere::new(2), ZeroNoise);
        let init = vec![vec![0.0, 0.0], vec![1e-9, 0.0], vec![0.0, 1e-9]];
        let eng = Engine::new(
            &obj,
            init,
            SimplexConfig::default(),
            Termination::tolerance(1e-6),
            TimeMode::Parallel,
            3,
        );
        assert_eq!(eng.should_stop(), Some(StopReason::Tolerance));
    }

    fn vertex_points<F: StochasticObjective>(eng: &Engine<'_, F>) -> Vec<Vec<f64>> {
        (0..eng.n_vertices())
            .map(|i| eng.point(i).to_vec())
            .collect()
    }

    /// A run on noisy Rosenbrock, sampling in place, advanced by up to
    /// `steps` classic steps.
    fn advanced<'a>(
        obj: &'a Noisy<Rosenbrock, ConstantNoise>,
        seed: u64,
        steps: usize,
    ) -> Engine<'a, Noisy<Rosenbrock, ConstantNoise>> {
        let d = obj.dim();
        let init = crate::init::random_uniform(d, -4.0, 4.0, seed);
        let (cfg, term, mode) = (
            SimplexConfig::default(),
            Termination::default(),
            TimeMode::Parallel,
        );
        let serial = Arc::new(stoch_eval::backend::SerialBackend);
        let mut eng = Engine::new_with_backend(obj, init, cfg, term, mode, seed, serial);
        for _ in 0..steps {
            if now(crate::classic::classic_iteration(&mut eng)).is_some() {
                break;
            }
        }
        eng
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn in_place_geometry_matches_the_slice_functions(
            d in 2usize..7,
            seed in 0u64..1_000,
            steps in 0usize..60,
        ) {
            let obj = Noisy::gaussian(Rosenbrock::new(d), ConstantNoise(10.0));
            let eng = advanced(&obj, seed, steps);
            let pts = vertex_points(&eng);
            prop_assert_eq!(eng.diameter().to_bits(), geometry::diameter(&pts).to_bits());
            for ex in 0..=d {
                let bits = |c: Vec<f64>| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(
                    bits(eng.centroid_excluding(ex)),
                    bits(geometry::centroid_excluding(&pts, ex))
                );
            }
            let values: Vec<f64> = eng.vertex_estimates().iter().map(|e| e.value).collect();
            prop_assert_eq!(eng.ordering(), geometry::order(&values));
        }

        #[test]
        fn cached_diameter_follows_every_vertex_change(
            d in 2usize..6,
            seed in 0u64..1_000,
            steps in 0usize..30,
            v in 0usize..6,
        ) {
            let obj = Noisy::gaussian(Rosenbrock::new(d), ConstantNoise(10.0));
            let mut eng = advanced(&obj, seed, steps);
            let v = v % eng.n_vertices();
            let fresh = |eng: &Engine<'_, _>| geometry::diameter(&vertex_points(eng)).to_bits();

            eng.diameter(); // fill the cache
            let far: Vec<f64> = eng.point(v).iter().map(|x| 3.0 * x + 1.0).collect();
            let t = eng.open_trial(far);
            now(eng.extend_round(&[t]));
            eng.replace_vertex(v, t);
            eng.drop_trials();
            prop_assert_eq!(eng.diameter().to_bits(), fresh(&eng));

            now(eng.collapse(v));
            prop_assert_eq!(eng.diameter().to_bits(), fresh(&eng));
        }
    }

    #[test]
    fn finish_reports_best_vertex() {
        let obj = Noisy::new(Sphere::new(2), ZeroNoise);
        let eng = engine_for(&obj);
        let res = eng.finish(StopReason::MaxIterations);
        assert_eq!(res.best_point, vec![0.0, 0.0]);
        assert_eq!(res.best_observed, 0.0);
    }
}
