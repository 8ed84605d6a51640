//! Run-accounting instrumentation for the simplex engine and algorithms.
//!
//! An [`EngineMetrics`] block is a set of pre-resolved handles into an
//! [`obs::MetricsRegistry`]: the registry lock is taken once at attach time,
//! after which every hot-path update is a single relaxed atomic op. When no
//! registry is attached the engine skips all accounting (one branch per
//! site), keeping the disabled-path overhead negligible.
//!
//! Naming scheme (all under the shared registry):
//!
//! * `engine.steps.{reflect,expand,contract,collapse}` — accepted moves.
//! * `engine.trials.{opened,dropped}` — trial slot churn.
//! * `engine.rounds` / `engine.sampling_time` — concurrent sampling rounds
//!   and total virtual sampling time charged across streams.
//! * `pc.site.cN.{decided_true,decided_false,undecided_resample}` and
//!   `pc.site.cN.resample_time` — the seven PC decision sites (Algorithm 3).
//!   Sites checked in the same resampling loop (c1/c5, c3/c4, c6/c7) share
//!   rounds, so summing `resample_time` across sites over-counts wall time;
//!   per-site it reads "virtual time during which this site was undecided".
//! * `mn.gate.{checks,failures}`, `mn.extension_rounds`,
//!   `mn.equalize_time` — the MN wait loop (Algorithm 2 / Eq. 2.3).
//! * `eval.tail.{flag_rounds,switches}` — breakdown-aware gating: rounds
//!   whose tail diagnostic crossed the thresholds, and estimator
//!   auto-switches (DESIGN.md §14).

use crate::result::RunMetrics;
use crate::trace::StepKind;
use obs::{Counter, MetricsRegistry, TimeAccumulator};
use std::sync::Arc;

/// Handles for one PC decision site (`c1`…`c7`).
#[derive(Debug, Clone)]
pub struct SiteMetrics {
    /// The site's condition was confidently decided in the affirmative.
    pub decided_true: Arc<Counter>,
    /// The comparison resolved confidently the other way.
    pub decided_false: Arc<Counter>,
    /// Rounds in which the site stayed undecided and forced a resample.
    pub undecided_resample: Arc<Counter>,
    /// Virtual time spent resampling while this site was undecided.
    pub resample_time: Arc<TimeAccumulator>,
}

/// Pre-resolved metric handles threaded through the engine and algorithms.
#[derive(Debug, Clone)]
pub struct EngineMetrics {
    /// Accepted moves, indexed by [`StepKind`] discriminant.
    steps: [Arc<Counter>; 4],
    /// Trial slots opened.
    pub trials_opened: Arc<Counter>,
    /// Trial slots discarded.
    pub trials_dropped: Arc<Counter>,
    /// Concurrent sampling rounds executed.
    pub rounds: Arc<Counter>,
    /// Total virtual sampling time charged across all streams.
    pub sampling_time: Arc<TimeAccumulator>,
    /// The seven PC decision sites, index 0 = `c1`.
    sites: [SiteMetrics; 7],
    /// MN gate evaluations.
    pub mn_gate_checks: Arc<Counter>,
    /// MN gate evaluations that failed (forcing an extension round).
    pub mn_gate_failures: Arc<Counter>,
    /// Extension rounds run by the MN wait loop.
    pub mn_extension_rounds: Arc<Counter>,
    /// Virtual time spent equalizing noise in the MN wait loop.
    pub mn_equalize_time: Arc<TimeAccumulator>,
    /// Non-finite samples quarantined at stream ingestion.
    pub nonfinite: Arc<Counter>,
    /// Rounds in which a stream's tail diagnostic crossed the breakdown
    /// thresholds (DESIGN.md §14).
    pub tail_flag_rounds: Arc<Counter>,
    /// Estimator auto-switches performed by the breakdown policy.
    pub tail_switches: Arc<Counter>,
    /// Checkpoint files written inline; a write handed to a checkpoint sink
    /// is the sink's to count. Registry-only: deliberately excluded from
    /// [`RunMetrics`] so a resumed run's summary stays bit-identical to an
    /// uninterrupted golden run (which writes no checkpoints).
    pub ckpt_writes: Arc<Counter>,
}

impl EngineMetrics {
    /// Resolve (or create) every handle in `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        let site = |n: usize| SiteMetrics {
            decided_true: registry.counter(&format!("pc.site.c{n}.decided_true")),
            decided_false: registry.counter(&format!("pc.site.c{n}.decided_false")),
            undecided_resample: registry.counter(&format!("pc.site.c{n}.undecided_resample")),
            resample_time: registry.time(&format!("pc.site.c{n}.resample_time")),
        };
        EngineMetrics {
            steps: [
                registry.counter("engine.steps.reflect"),
                registry.counter("engine.steps.expand"),
                registry.counter("engine.steps.contract"),
                registry.counter("engine.steps.collapse"),
            ],
            trials_opened: registry.counter("engine.trials.opened"),
            trials_dropped: registry.counter("engine.trials.dropped"),
            rounds: registry.counter("engine.rounds"),
            sampling_time: registry.time("engine.sampling_time"),
            sites: std::array::from_fn(|i| site(i + 1)),
            mn_gate_checks: registry.counter("mn.gate.checks"),
            mn_gate_failures: registry.counter("mn.gate.failures"),
            mn_extension_rounds: registry.counter("mn.extension_rounds"),
            mn_equalize_time: registry.time("mn.equalize_time"),
            nonfinite: registry.counter("eval.nonfinite"),
            tail_flag_rounds: registry.counter("eval.tail.flag_rounds"),
            tail_switches: registry.counter("eval.tail.switches"),
            ckpt_writes: registry.counter("ckpt.writes"),
        }
    }

    /// Replay a restored [`RunMetrics`] snapshot into this block's handles.
    ///
    /// Called once on resume, before any new accounting, so `summary()` at
    /// the end of the resumed run equals the uninterrupted run's summary:
    /// each counter receives the persisted partial sum as a single `add`,
    /// and each time accumulator a single float addition onto `0.0` —
    /// which preserves bit-identity because `(0.0 + s) + x == s + x`.
    pub fn absorb(&self, prior: &RunMetrics) {
        self.steps[0].add(prior.steps_reflect);
        self.steps[1].add(prior.steps_expand);
        self.steps[2].add(prior.steps_contract);
        self.steps[3].add(prior.steps_collapse);
        self.trials_opened.add(prior.trials_opened);
        self.trials_dropped.add(prior.trials_dropped);
        self.rounds.add(prior.rounds);
        self.sampling_time.add(prior.sampling_time);
        for i in 0..7 {
            self.sites[i].decided_true.add(prior.site_decided_true[i]);
            self.sites[i].decided_false.add(prior.site_decided_false[i]);
            self.sites[i]
                .undecided_resample
                .add(prior.site_undecided_resample[i]);
            self.sites[i].resample_time.add(prior.site_resample_time[i]);
        }
        self.mn_gate_checks.add(prior.mn_gate_checks);
        self.mn_gate_failures.add(prior.mn_gate_failures);
        self.mn_extension_rounds.add(prior.mn_extension_rounds);
        self.mn_equalize_time.add(prior.mn_equalize_time);
        self.nonfinite.add(prior.nonfinite);
        self.tail_flag_rounds.add(prior.tail_flag_rounds);
        self.tail_switches.add(prior.tail_switches);
    }

    /// Record an accepted move.
    pub fn record_step(&self, kind: StepKind) {
        let idx = match kind {
            StepKind::Reflect => 0,
            StepKind::Expand => 1,
            StepKind::Contract => 2,
            StepKind::Collapse => 3,
        };
        self.steps[idx].inc();
    }

    /// Handles for decision site `c<n>` (`n` in `1..=7`).
    pub fn site(&self, n: usize) -> &SiteMetrics {
        &self.sites[n - 1]
    }

    /// Snapshot this engine's handles into a plain-value summary.
    pub fn summary(&self) -> RunMetrics {
        RunMetrics {
            steps_reflect: self.steps[0].get(),
            steps_expand: self.steps[1].get(),
            steps_contract: self.steps[2].get(),
            steps_collapse: self.steps[3].get(),
            trials_opened: self.trials_opened.get(),
            trials_dropped: self.trials_dropped.get(),
            rounds: self.rounds.get(),
            sampling_time: self.sampling_time.get(),
            site_decided_true: std::array::from_fn(|i| self.sites[i].decided_true.get()),
            site_decided_false: std::array::from_fn(|i| self.sites[i].decided_false.get()),
            site_undecided_resample: std::array::from_fn(|i| {
                self.sites[i].undecided_resample.get()
            }),
            site_resample_time: std::array::from_fn(|i| self.sites[i].resample_time.get()),
            mn_gate_checks: self.mn_gate_checks.get(),
            mn_gate_failures: self.mn_gate_failures.get(),
            mn_extension_rounds: self.mn_extension_rounds.get(),
            mn_equalize_time: self.mn_equalize_time.get(),
            nonfinite: self.nonfinite.get(),
            tail_flag_rounds: self.tail_flag_rounds.get(),
            tail_switches: self.tail_switches.get(),
        }
    }
}
