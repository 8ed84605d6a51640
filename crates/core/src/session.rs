//! `RunSession` — one optimization run as an explicit, resumable state
//! machine.
//!
//! A session exposes the run's loop *body* as a step: one simplex
//! decision, preceded by the due-checkpoint write, the termination check and
//! the algorithm's gate, in the order the historical closed loops used. A
//! driver can interleave many runs, suspend one to bytes between steps
//! ([`RunSession::snapshot`]) and resume it later on another backend.
//!
//! [`RunSession::step`] samples every round in place on the session's own
//! backend; [`RunSession::run_to_completion`] loops it, bit-identically to
//! the historical `run()` entry points. [`RunSession::poll`] instead hands
//! each round to the caller ([`Progress::NeedSamples`]), who extends the
//! jobs on any backend — the `nsx-sched` tick merges many runs' rounds into
//! one batch — and returns them with [`RunSession::deliver`]. Sampling is
//! the only place a step suspends; while a polled step is in flight its
//! future owns the engine, so [`RunSession::snapshot`] and the other
//! engine accessors are for use between steps.
//!
//! Every method runs and resumes through the one front door written over a
//! session, [`Method`](crate::algorithm::Method).

use crate::anderson::AndersonNm;
use crate::checkpoint::{CheckpointError, CheckpointSink};
use crate::classic::{classic_iteration, gate_wait, internal_variance, max_noise_variance};
use crate::config::{AndersonParams, MnParams, PcParams, SimplexConfig};
use crate::engine::{now, Engine, Mailbox};
use crate::metrics::EngineMetrics;
use crate::pc::pc_iteration;
use crate::result::RunResult;
use crate::termination::{StopReason, Termination};
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use stoch_eval::backend::{SamplingBackend, StreamJob};
use stoch_eval::clock::TimeMode;
use stoch_eval::codec::CodecError;
use stoch_eval::objective::StochasticObjective;

/// Which algorithm's decision procedure a session runs per step.
///
/// `Det` and `Pc` have no pre-iteration gate; `Mn`, `Anderson`, and `PcMn`
/// first wait (extending vertex streams) until their noise criterion is
/// satisfied, then take one simplex step.
#[derive(Debug, Clone, Copy)]
pub enum Driver {
    /// Deterministic Nelder–Mead (Algorithm 1): no gate, classic body.
    Det,
    /// Max-noise (Algorithm 2): MN gate, then the classic body.
    Mn(MnParams),
    /// Anderson criterion (Eq. 2.4) gate, then the classic body.
    Anderson(AndersonParams),
    /// Point-comparison (Algorithm 3): no gate, PC body.
    Pc(PcParams),
    /// PC+MN (Algorithm 4): MN gate, then the PC body.
    PcMn(MnParams, PcParams),
}

/// Outcome of a single [`RunSession::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// The step completed and the run wants more steps.
    Running,
    /// A termination criterion fired; the session is finished and further
    /// `step` calls are no-ops.
    Finished,
}

/// What one [`RunSession::poll`] produced.
pub enum Progress<S> {
    /// The step posted a sampling round. Extend these jobs on any backend
    /// and hand them back, in submission order with their slots intact (the
    /// [`SamplingBackend`] contract), through [`RunSession::deliver`].
    NeedSamples(Vec<StreamJob<S>>),
    /// A step completed, with this status.
    Stepped(SessionStatus),
}

const MID_STEP: &str = "a polled step is in flight: deliver its round and poll until it steps";

/// A polled step in flight: it owns the engine and returns it on completion.
type StepFuture<'a, F> =
    Pin<Box<dyn Future<Output = (Engine<'a, F>, Option<StopReason>)> + Send + 'a>>;

/// One simplex decision: the due checkpoint, the termination check, the
/// driver's gate, then one iteration body.
async fn step_body<F: StochasticObjective>(
    eng: &mut Engine<'_, F>,
    driver: Driver,
) -> Option<StopReason> {
    eng.checkpoint_if_due();
    if let Some(r) = eng.should_stop() {
        return Some(r);
    }
    // The MN gate (Eq. 2.3) and the Anderson criterion (Eq. 2.4) differ
    // only in when the noisiest vertex is quiet enough.
    let gate_stop = match driver {
        Driver::Det | Driver::Pc(_) => None,
        Driver::Mn(p) | Driver::PcMn(p, _) => {
            gate_wait(eng, |e| {
                let value = |i| e.estimate(i).value;
                max_noise_variance(e) <= p.k * internal_variance(e.n_vertices(), value)
            })
            .await
        }
        Driver::Anderson(p) => {
            gate_wait(eng, |e| {
                max_noise_variance(e) < AndersonNm::threshold(p, e.level().0)
            })
            .await
        }
    };
    if gate_stop.is_some() {
        return gate_stop;
    }
    match driver {
        Driver::Pc(p) | Driver::PcMn(_, p) => pc_iteration(eng, p).await,
        Driver::Det | Driver::Mn(_) | Driver::Anderson(_) => classic_iteration(eng).await,
    }
}

/// A single run in yield-per-round form: construct (or resume) it, call
/// [`step`](Self::step) (or [`poll`](Self::poll)) until it reports
/// [`SessionStatus::Finished`], then take the [`RunResult`] with
/// [`finish`](Self::finish).
pub struct RunSession<'a, F: StochasticObjective> {
    /// `None` only while a polled step is in flight.
    eng: Option<Engine<'a, F>>,
    driver: Driver,
    done: Option<StopReason>,
    in_flight: Option<StepFuture<'a, F>>,
    mailbox: Mailbox<F::Stream>,
}

impl<'a, F: StochasticObjective> RunSession<'a, F> {
    fn over(eng: Engine<'a, F>, driver: Driver) -> Self {
        RunSession {
            eng: Some(eng),
            driver,
            done: None,
            in_flight: None,
            mailbox: Mailbox::default(),
        }
    }

    /// Start a fresh session on the backend the config would build.
    ///
    /// # Panics
    /// As [`Engine::new`]: on a malformed `init`, invalid coefficients or an
    /// invalid sampling policy.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        objective: &'a F,
        init: Vec<Vec<f64>>,
        cfg: SimplexConfig,
        term: Termination,
        mode: TimeMode,
        seed: u64,
        driver: Driver,
    ) -> Self {
        Self::over(Engine::new(objective, init, cfg, term, mode, seed), driver)
    }

    /// Start a fresh session on an explicit (possibly shared) backend.
    #[allow(clippy::too_many_arguments)]
    pub fn with_backend(
        objective: &'a F,
        init: Vec<Vec<f64>>,
        cfg: SimplexConfig,
        term: Termination,
        mode: TimeMode,
        seed: u64,
        driver: Driver,
        backend: Arc<dyn SamplingBackend<F::Stream>>,
    ) -> Self {
        let eng = Engine::new_with_backend(objective, init, cfg, term, mode, seed, backend);
        Self::over(eng, driver)
    }

    /// Resume a session from checkpoint bytes (see [`Engine::resume`]).
    pub fn resume(
        objective: &'a F,
        cfg: SimplexConfig,
        payload: &[u8],
        term_override: Option<Termination>,
        driver: Driver,
    ) -> Result<Self, CheckpointError> {
        let eng = Engine::resume(objective, cfg, payload, term_override)?;
        Ok(Self::over(eng, driver))
    }

    /// Resume a session from checkpoint bytes onto an explicit backend. The
    /// snapshot carries no backend state, so the run may land on a different
    /// backend than it was suspended from — serial to threaded, solo to
    /// shared fleet.
    pub fn resume_with_backend(
        objective: &'a F,
        cfg: SimplexConfig,
        payload: &[u8],
        term_override: Option<Termination>,
        driver: Driver,
        backend: Arc<dyn SamplingBackend<F::Stream>>,
    ) -> Result<Self, CheckpointError> {
        let eng = Engine::resume_with_backend(objective, cfg, payload, term_override, backend)?;
        Ok(Self::over(eng, driver))
    }

    fn engine_mut(&mut self) -> &mut Engine<'a, F> {
        self.eng.as_mut().expect(MID_STEP)
    }

    fn status(&self) -> SessionStatus {
        if self.done.is_some() {
            SessionStatus::Finished
        } else {
            SessionStatus::Running
        }
    }

    /// Record engine tallies (and gate/site statistics) into `metrics`.
    pub fn attach_metrics(&mut self, metrics: EngineMetrics) {
        self.engine_mut().attach_metrics(metrics);
    }

    /// Hand the run's due checkpoint writes to `sink` instead of writing
    /// them inline (DESIGN.md §11): the seam a scheduler puts its
    /// write-behind writer behind. The cadence and the snapshots do not
    /// change.
    pub fn set_checkpoint_sink(&mut self, sink: CheckpointSink) {
        self.engine_mut().set_checkpoint_sink(sink);
    }

    /// Record a [`RunNote`](crate::result::RunNote) against this run from an
    /// external supervisor (checkpoint-fallback on resume, scheduler
    /// quarantine). Deduplicated per kind; survives snapshots.
    pub fn record_note(&mut self, n: crate::result::RunNote) {
        self.engine_mut().record_note(n);
    }

    /// Advance the run by at most one simplex decision: write a due
    /// checkpoint, check termination, run the driver's gate, then one
    /// iteration body, sampling every round in place on the session's
    /// backend. Calling `step` after `Finished` is a no-op.
    ///
    /// # Panics
    /// While a polled step is in flight.
    pub fn step(&mut self) -> SessionStatus {
        if self.done.is_none() {
            let driver = self.driver;
            self.done = now(step_body(self.engine_mut(), driver));
        }
        self.status()
    }

    /// Advance the run like [`step`](Self::step), but hand its sampling
    /// rounds to the caller: returns [`Progress::NeedSamples`] when the
    /// step posts a round, and [`Progress::Stepped`] when it completes.
    /// After `NeedSamples`, [`deliver`](Self::deliver) the extended jobs
    /// and poll again to continue the same step. Polling a finished session
    /// reports `Stepped(Finished)`.
    ///
    /// # Panics
    /// When polled again before the posted round was delivered.
    pub fn poll(&mut self) -> Progress<F::Stream> {
        if self.in_flight.is_none() {
            if self.done.is_some() {
                return Progress::Stepped(SessionStatus::Finished);
            }
            let mut eng = self.eng.take().expect("engine held between steps");
            eng.mailbox = Some(Arc::clone(&self.mailbox));
            let driver = self.driver;
            self.in_flight = Some(Box::pin(async move {
                let stop = step_body(&mut eng, driver).await;
                (eng, stop)
            }));
        }
        let step = self.in_flight.as_mut().expect("a step is in flight");
        match step.as_mut().poll(&mut Context::from_waker(Waker::noop())) {
            Poll::Pending => {
                let posted = self.mailbox.lock().expect("run mailbox poisoned").take();
                Progress::NeedSamples(posted.expect("polled before the posted round was delivered"))
            }
            Poll::Ready((mut eng, stop)) => {
                eng.mailbox = None;
                self.eng = Some(eng);
                self.in_flight = None;
                self.done = stop;
                Progress::Stepped(self.status())
            }
        }
    }

    /// Hand back the round the last [`poll`](Self::poll) posted, every job
    /// extended by its `dt`, in submission order.
    ///
    /// # Panics
    /// When no posted round is outstanding.
    pub fn deliver(&mut self, jobs: Vec<StreamJob<F::Stream>>) {
        let mut slot = self.mailbox.lock().expect("run mailbox poisoned");
        assert!(
            self.in_flight.is_some() && slot.is_none(),
            "deliver called with no posted round outstanding"
        );
        *slot = Some(jobs);
    }

    /// Whether a termination criterion already fired.
    pub fn is_finished(&self) -> bool {
        self.done.is_some()
    }

    /// The stop reason, once finished.
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.done
    }

    /// Serialize the run to resumable bytes (between steps, no streams are
    /// in flight). Fails with [`CodecError::Unsupported`] when the
    /// objective's streams cannot save state — such a run cannot be
    /// preempted, only run to completion.
    pub fn snapshot(&self) -> Result<Vec<u8>, CodecError> {
        self.eng.as_ref().expect(MID_STEP).snapshot()
    }

    /// Consume a finished session and produce its [`RunResult`].
    ///
    /// # Panics
    /// If the session has not finished yet.
    pub fn finish(self) -> RunResult {
        let reason = self
            .done
            .expect("RunSession::finish called before the run finished");
        self.eng
            .expect("a finished session holds its engine")
            .finish(reason)
    }

    /// Drive the session to completion in a closed loop — the historical
    /// `run()` behaviour, bit-identical to the pre-session loops.
    pub fn run_to_completion(mut self) -> RunResult {
        while self.step() == SessionStatus::Running {}
        self.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mw_framework::ThreadedBackend;
    use std::sync::atomic::{AtomicU64, Ordering};
    use stoch_eval::backend::SerialBackend;
    use stoch_eval::functions::Rosenbrock;
    use stoch_eval::noise::ConstantNoise;
    use stoch_eval::objective::SampleStream;
    use stoch_eval::sampler::Noisy;

    const fn assert_send<T: Send>() {}
    const _: () = assert_send::<RunSession<'static, Noisy<Rosenbrock, ConstantNoise>>>();

    /// Serial execution that counts the batches it runs.
    #[derive(Default)]
    struct Counted(AtomicU64);

    impl<S: SampleStream> SamplingBackend<S> for Counted {
        fn extend_batch(&self, jobs: Vec<StreamJob<S>>) -> Vec<StreamJob<S>> {
            self.0.fetch_add(1, Ordering::Relaxed);
            SerialBackend.extend_batch(jobs)
        }
        fn name(&self) -> &'static str {
            "counted"
        }
    }

    #[test]
    fn polled_sessions_match_run_to_completion_bitwise_for_every_driver() {
        let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(10.0));
        let term = Termination::wall_time(2e3);
        let elsewhere = ThreadedBackend::new(2);
        let drivers = [
            Driver::Det,
            Driver::Mn(MnParams::default()),
            Driver::Anderson(AndersonParams::default()),
            Driver::Pc(PcParams::default()),
            Driver::PcMn(MnParams::default(), PcParams::default()),
        ];
        for (seed, driver) in (0u64..).zip(drivers) {
            let init = crate::init::random_uniform(2, -4.0, 4.0, 40 + seed);
            let session = |backend| {
                let (cfg, mode) = (SimplexConfig::default(), TimeMode::Parallel);
                RunSession::with_backend(&obj, init.clone(), cfg, term, mode, seed, driver, backend)
            };
            let solo = session(Arc::new(SerialBackend)).run_to_completion();

            let own = Arc::new(Counted::default());
            let mut polled = session(own.clone());
            loop {
                match polled.poll() {
                    Progress::NeedSamples(jobs) => polled.deliver(elsewhere.extend_batch(jobs)),
                    Progress::Stepped(SessionStatus::Finished) => break,
                    Progress::Stepped(SessionStatus::Running) => {}
                }
            }
            // Only the constructor's round sampled on the session's backend.
            assert_eq!(own.0.load(Ordering::Relaxed), 1, "{driver:?}");
            // Debug prints every f64 in its shortest round-trip form, so
            // equal text means equal bits in every field.
            let got = polled.finish();
            assert_eq!(format!("{solo:?}"), format!("{got:?}"), "{driver:?}");
        }
    }
}
