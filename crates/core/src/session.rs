//! `RunSession` — one optimization run as an explicit, resumable state
//! machine.
//!
//! Historically each algorithm owned its own driving loop (`classic_loop`,
//! `pc_loop`, …): the run drove the sampling backend until a termination
//! criterion fired, and nothing else could get a word in edgewise. This
//! module inverts that ownership. A session exposes the loop *body* as
//! [`RunSession::step`] — exactly one simplex decision per call, preceded by
//! the due-checkpoint write, the termination check, and the algorithm's gate
//! (MN/Anderson wait loops) in the same order the old loops used — so an
//! external driver (the `nsx-sched` scheduler, a test harness, a REPL) can
//! interleave many runs on one shared backend, suspend a run to bytes
//! between steps via [`RunSession::snapshot`], and resume it later on a
//! different backend.
//!
//! Because `step` performs the same calls in the same order as the old
//! closed loops, [`RunSession::run_to_completion`] is bit-identical to the
//! historical `run()` entry points. Every method runs and resumes through
//! the one front door written over a session,
//! [`Method`](crate::algorithm::Method).

use crate::anderson::AndersonNm;
use crate::checkpoint::CheckpointError;
use crate::classic::classic_iteration;
use crate::config::{AndersonParams, MnParams, PcParams, SimplexConfig};
use crate::engine::Engine;
use crate::metrics::EngineMetrics;
use crate::mn::mn_wait;
use crate::pc::pc_iteration;
use crate::result::RunResult;
use crate::termination::{StopReason, Termination};
use std::sync::Arc;
use stoch_eval::backend::SamplingBackend;
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

/// A single run in yield-per-round form: construct (or resume) it, call
/// [`step`](Self::step) until it reports [`SessionStatus::Finished`], then
/// take the [`RunResult`] with [`finish`](Self::finish).
pub struct RunSession<'a, F: StochasticObjective> {
    eng: Engine<'a, F>,
    driver: Driver,
    done: Option<StopReason>,
}

impl<'a, F: StochasticObjective> RunSession<'a, F> {
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
        let eng = Engine::new(objective, init, cfg, term, mode, seed);
        RunSession {
            eng,
            driver,
            done: None,
        }
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
        RunSession {
            eng,
            driver,
            done: None,
        }
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
        Ok(RunSession {
            eng,
            driver,
            done: None,
        })
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
        Ok(RunSession {
            eng,
            driver,
            done: None,
        })
    }

    /// Record engine tallies (and gate/site statistics) into `metrics`.
    pub fn attach_metrics(&mut self, metrics: EngineMetrics) {
        self.eng.attach_metrics(metrics);
    }

    /// Record a [`RunNote`](crate::result::RunNote) against this run from an
    /// external supervisor (checkpoint-fallback on resume, scheduler
    /// quarantine). Deduplicated per kind; survives snapshots.
    pub fn record_note(&mut self, n: crate::result::RunNote) {
        self.eng.record_note(n);
    }

    /// Advance the run by at most one simplex decision: write a due
    /// checkpoint, check termination, run the driver's gate, then one
    /// iteration body. Calling `step` after `Finished` is a no-op.
    pub fn step(&mut self) -> SessionStatus {
        if self.done.is_some() {
            return SessionStatus::Finished;
        }
        self.eng.checkpoint_if_due();
        if let Some(r) = self.eng.should_stop() {
            self.done = Some(r);
            return SessionStatus::Finished;
        }
        let gate_stop = match self.driver {
            Driver::Det | Driver::Pc(_) => None,
            Driver::Mn(p) | Driver::PcMn(p, _) => mn_wait(p.k, &mut self.eng),
            Driver::Anderson(p) => AndersonNm::wait(p, &mut self.eng),
        };
        if let Some(r) = gate_stop {
            self.done = Some(r);
            return SessionStatus::Finished;
        }
        let iter_stop = match self.driver {
            Driver::Pc(p) | Driver::PcMn(_, p) => pc_iteration(&mut self.eng, p),
            Driver::Det | Driver::Mn(_) | Driver::Anderson(_) => {
                classic_iteration(&mut self.eng, |eng, id| eng.extend_round(&[id]))
            }
        };
        if let Some(r) = iter_stop {
            self.done = Some(r);
            return SessionStatus::Finished;
        }
        SessionStatus::Running
    }

    /// Whether a termination criterion already fired.
    pub fn is_finished(&self) -> bool {
        self.done.is_some()
    }

    /// The stop reason, once finished.
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.done
    }

    /// Completed simplex iterations so far.
    pub fn iterations(&self) -> u64 {
        self.eng.iterations()
    }

    /// Virtual sampling time elapsed so far.
    pub fn elapsed(&self) -> f64 {
        self.eng.elapsed()
    }

    /// Serialize the run to resumable bytes (between steps, no streams are
    /// in flight). Fails with [`CodecError::Unsupported`] when the
    /// objective's streams cannot save state — such a run cannot be
    /// preempted, only run to completion.
    pub fn snapshot(&self) -> Result<Vec<u8>, CodecError> {
        self.eng.snapshot()
    }

    /// Consume a finished session and produce its [`RunResult`].
    ///
    /// # Panics
    /// If the session has not finished yet.
    pub fn finish(self) -> RunResult {
        let reason = self
            .done
            .expect("RunSession::finish called before the run finished");
        self.eng.finish(reason)
    }

    /// Drive the session to completion in a closed loop — the historical
    /// `run()` behaviour, bit-identical to the pre-session loops.
    pub fn run_to_completion(mut self) -> RunResult {
        while self.step() == SessionStatus::Running {}
        self.finish()
    }
}
