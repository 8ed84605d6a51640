//! Optimization results and the paper's three performance measures
//! (N, R, D — §3.2).

use crate::termination::StopReason;
use crate::trace::Trace;
use stoch_eval::backend::SamplingBackend;
use stoch_eval::objective::StochasticObjective;

/// A notable, non-fatal event recorded during a run.
///
/// Notes report conditions the run survived — they never change results
/// (the backend determinism contract holds through every note), only how
/// the run executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunNote {
    /// The parallel sampling backend permanently lost its worker pool
    /// (respawn budget exhausted with no live workers) and the run finished
    /// with inline serial execution. Results are identical to a fault-free
    /// run; only wall-clock parallelism was lost. See DESIGN.md §9.
    DegradedToSerial,
    /// At least one sampling stream ingested a non-finite value (NaN/±inf).
    /// Under the default quarantine policy the affected vertex's estimate is
    /// pinned to `+inf` (it loses every comparison) and the run continues.
    NonFiniteSample,
    /// A scheduled checkpoint write failed (I/O error). The run continued —
    /// checkpointing is best-effort — but crash recovery would resume from
    /// an older snapshot. Reported once per run; under a scheduler, at the
    /// tick after its writer thread reports the failure (DESIGN.md §13).
    CheckpointFailed,
    /// The process transport (`NSX_TRANSPORT=process`) permanently lost its
    /// worker processes (respawn budget exhausted, or none could be
    /// spawned) and the run finished with in-process execution. Results are
    /// identical to a fault-free distributed run; only process-level
    /// parallelism was lost. See DESIGN.md §12.
    TransportDegraded,
    /// At least one stream's online tail diagnostic crossed the configured
    /// [`BreakdownPolicy`](crate::config::BreakdownPolicy) thresholds: the
    /// sampling noise is not plausibly the Gaussian the Welford gates were
    /// calibrated for (heavy tails or contamination detected). Under
    /// `BreakdownAction::SwitchRobust` the run's streams were switched to
    /// the robust estimator from that round on. See DESIGN.md §14.
    NoiseSuspect,
    /// The scheduler quarantined this run: its dedicated backend repeatedly
    /// exhausted retry/respawn budgets, so the run was checkpointed and
    /// evicted from the shared fleet rather than allowed to drag other
    /// runs into degraded execution. The run later resumed (possibly with a
    /// sanitized configuration) and finished; results are bit-identical to
    /// an uneventful solo run. See DESIGN.md §16.
    Quarantined,
    /// Resume could not read the primary checkpoint (CRC mismatch or
    /// truncation) and fell back to the retained previous-generation
    /// snapshot (`<path>.1`). The run re-executed the iterations since that
    /// older snapshot bit-identically; only wall-clock work was repeated.
    /// See DESIGN.md §11.
    CheckpointFellBack,
}

/// Collect the [`RunNote`]s a backend reports after a run. A degraded
/// process-transport backend reports [`RunNote::TransportDegraded`] (the
/// wire was lost); any other degraded backend reports
/// [`RunNote::DegradedToSerial`].
pub fn notes_from_backend<S>(backend: &dyn SamplingBackend<S>) -> Vec<RunNote> {
    if !backend.degraded() {
        Vec::new()
    } else if backend.name() == "process" {
        vec![RunNote::TransportDegraded]
    } else {
        vec![RunNote::DegradedToSerial]
    }
}

/// The outcome of one optimization run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Best point found (the final `θ_min`).
    pub best_point: Vec<f64>,
    /// Observed objective value at `best_point` when the run stopped.
    pub best_observed: f64,
    /// Number of completed simplex iterations (the paper's `N`).
    pub iterations: u64,
    /// Total elapsed virtual sampling time.
    pub elapsed: f64,
    /// Total virtual sampling time summed over all streams (CPU-time
    /// analogue; equals `elapsed` in serial mode).
    pub total_sampling: f64,
    /// Why the run stopped.
    pub stop: StopReason,
    /// Per-iteration trace.
    pub trace: Trace,
    /// Run-accounting summary, present when a metrics registry was attached
    /// (see [`crate::metrics::EngineMetrics`]).
    pub metrics: Option<RunMetrics>,
    /// Non-fatal events the run survived (e.g. degradation to serial
    /// execution after worker loss). Empty for an uneventful run.
    pub notes: Vec<RunNote>,
}

/// Plain-value snapshot of a run's accounting, taken when the engine
/// finishes. Field meanings mirror the registry metrics documented in
/// [`crate::metrics`]; arrays are indexed `0 ↦ c1` … `6 ↦ c7`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunMetrics {
    /// Accepted reflection steps.
    pub steps_reflect: u64,
    /// Accepted expansion steps.
    pub steps_expand: u64,
    /// Accepted contraction steps.
    pub steps_contract: u64,
    /// Collapse (total-contraction) steps.
    pub steps_collapse: u64,
    /// Trial slots opened.
    pub trials_opened: u64,
    /// Trial slots discarded.
    pub trials_dropped: u64,
    /// Concurrent sampling rounds executed.
    pub rounds: u64,
    /// Total virtual sampling time charged across all streams.
    pub sampling_time: f64,
    /// Per-site count of confident affirmative decisions.
    pub site_decided_true: [u64; 7],
    /// Per-site count of confident negative decisions.
    pub site_decided_false: [u64; 7],
    /// Per-site count of undecided rounds that forced a resample.
    pub site_undecided_resample: [u64; 7],
    /// Per-site virtual time spent resampling while undecided.
    pub site_resample_time: [f64; 7],
    /// MN gate evaluations.
    pub mn_gate_checks: u64,
    /// MN gate evaluations that failed.
    pub mn_gate_failures: u64,
    /// Extension rounds run by the MN wait loop.
    pub mn_extension_rounds: u64,
    /// Virtual time spent equalizing noise in the MN wait loop.
    pub mn_equalize_time: f64,
    /// Non-finite samples quarantined at stream ingestion (`eval.nonfinite`).
    pub nonfinite: u64,
    /// Rounds in which at least one stream's tail diagnostic crossed the
    /// breakdown thresholds (`eval.tail.flag_rounds`).
    pub tail_flag_rounds: u64,
    /// Estimator auto-switches performed by the breakdown policy
    /// (`eval.tail.switches`; 0 or 1 per run).
    pub tail_switches: u64,
}

impl RunMetrics {
    /// Total accepted moves of any kind.
    pub fn total_steps(&self) -> u64 {
        self.steps_reflect + self.steps_expand + self.steps_contract + self.steps_collapse
    }

    /// Total undecided-resample rounds over all seven PC sites.
    pub fn total_resamples(&self) -> u64 {
        self.site_undecided_resample.iter().sum()
    }
}

/// The paper's three success measures for a run against a known optimum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measures {
    /// `N`: iterations to convergence.
    pub n: u64,
    /// `R`: error in the (noise-free) function value at convergence.
    pub r: f64,
    /// `D`: Euclidean distance of the final best point to the solution.
    pub d: f64,
}

impl RunResult {
    /// Compute `(N, R, D)` against an objective with a known optimum.
    ///
    /// `R` uses the substrate's noise-free value when available, falling
    /// back to the observed value otherwise.
    pub fn measures<F: StochasticObjective>(
        &self,
        objective: &F,
        minimizer: &[f64],
        minimum: f64,
    ) -> Measures {
        let f_best = objective
            .true_value(&self.best_point)
            .unwrap_or(self.best_observed);
        let d = self
            .best_point
            .iter()
            .zip(minimizer)
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        Measures {
            n: self.iterations,
            r: (f_best - minimum).abs(),
            d,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stoch_eval::functions::Rosenbrock;
    use stoch_eval::noise::ConstantNoise;
    use stoch_eval::sampler::Noisy;

    #[test]
    fn measures_against_known_optimum() {
        let obj = Noisy::new(Rosenbrock::new(3), ConstantNoise(1.0));
        let res = RunResult {
            best_point: vec![1.0, 1.0, 2.0],
            best_observed: 123.0,
            iterations: 17,
            elapsed: 10.0,
            total_sampling: 40.0,
            stop: StopReason::Tolerance,
            trace: Trace::new(),
            metrics: None,
            notes: Vec::new(),
        };
        let m = res.measures(&obj, &[1.0, 1.0, 1.0], 0.0);
        assert_eq!(m.n, 17);
        assert_eq!(m.d, 1.0);
        // True Rosenbrock value at (1,1,2) = 100*(2-1)^2 = 100, not the
        // noisy observed 123.
        assert_eq!(m.r, 100.0);
    }
}
