//! Shared configuration: sampling policy, sampling-backend selection, and
//! per-algorithm parameter blocks.

use crate::checkpoint::CheckpointConfig;
use crate::geometry::Coefficients;
use mw_framework::backend::{default_workers, ThreadedBackend};
use mw_framework::pool::{default_respawn_budget, RetryPolicy};
use mw_framework::transport::process::{default_process_workers, ProcessBackend};
use mw_framework::FaultPlan;
use std::sync::Arc;
use stoch_eval::backend::{SamplingBackend, SerialBackend};
use stoch_eval::objective::SampleStream;
use stoch_eval::stats::{EstimatorChoice, TailReport};

/// A run specification refused before any sampling starts. These are the
/// checks [`Engine::new_with_backend`](crate::engine::Engine::new_with_backend)
/// asserts, in the fallible form a service returns at admission (see
/// [`SimplexConfig::validate_start`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The initial simplex is not `d + 1` vertices of dimension `d`.
    InitialSimplex(String),
    /// [`Coefficients::validate`] refused the Nelder–Mead coefficients.
    Coefficients(String),
    /// [`SamplingPolicy::validate`] refused the sampling policy.
    Sampling(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::InitialSimplex(e) => write!(f, "invalid initial simplex: {e}"),
            ConfigError::Coefficients(e) => write!(f, "invalid coefficients: {e}"),
            ConfigError::Sampling(e) => write!(f, "invalid sampling policy: {e}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Which [`SamplingBackend`] executes each sampling round (DESIGN.md §8).
///
/// `Serial` (the default) extends streams inline and is bit-identical to a
/// threaded run — backends only change *where* the compute happens, never
/// the results. `Threaded` fans each round over an MW worker pool.
///
/// The environment variable `NSX_BACKEND` overrides the default:
/// `serial`, `threaded` (shared auto-sized pool), or `threaded:<N>`
/// (dedicated pool of `N` workers). `NSX_WORKERS` sizes the shared pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendChoice {
    /// Extend streams inline on the calling thread.
    Serial,
    /// Fan rounds over MW workers; `workers == 0` means the process-wide
    /// shared pool sized by available hardware parallelism.
    Threaded {
        /// Dedicated pool size, or `0` for the shared auto-sized pool.
        workers: usize,
    },
}

impl Default for BackendChoice {
    fn default() -> Self {
        BackendChoice::from_env()
    }
}

impl BackendChoice {
    /// Read the `NSX_BACKEND` selection from the environment (`Serial`
    /// when unset). Panics naming the knob on a value [`parse`](Self::parse)
    /// rejects.
    pub fn from_env() -> Self {
        Self::from_setting(std::env::var("NSX_BACKEND").ok().as_deref())
    }

    /// [`from_env`](Self::from_env) over an already-read value.
    fn from_setting(value: Option<&str>) -> Self {
        value.map_or(BackendChoice::Serial, |v| {
            Self::parse(v).unwrap_or_else(|| {
                panic!(
                    "invalid NSX_BACKEND='{v}': expected serial|threaded|threaded:<N> with N >= 1"
                )
            })
        })
    }

    /// Parse a selection string: `serial`, `threaded`, or `threaded:<N>`
    /// with `N >= 1` (`threaded` alone selects the shared pool).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "serial" => Some(BackendChoice::Serial),
            "threaded" => Some(BackendChoice::Threaded { workers: 0 }),
            _ => s
                .strip_prefix("threaded:")
                .and_then(|n| n.parse().ok())
                .filter(|&workers: &usize| workers >= 1)
                .map(|workers| BackendChoice::Threaded { workers }),
        }
    }

    /// Instantiate the backend for a given stream type.
    pub fn build<S: SampleStream + 'static>(&self) -> Arc<dyn SamplingBackend<S>> {
        match *self {
            BackendChoice::Serial => Arc::new(SerialBackend),
            BackendChoice::Threaded { workers: 0 } => ThreadedBackend::shared(),
            BackendChoice::Threaded { workers } => Arc::new(ThreadedBackend::new(workers)),
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            BackendChoice::Serial => "serial",
            BackendChoice::Threaded { .. } => "threaded",
        }
    }
}

/// Where a parallel sampling round physically executes (DESIGN.md §12).
///
/// `Inproc` (the default) keeps everything in this process — the serial and
/// threaded backends as they have always been. `Process` routes every
/// sampling round over real worker *processes* connected by Unix-domain
/// sockets speaking the versioned frame protocol of `mw::transport`;
/// results are bit-identical either way (that is the point), only the wire
/// changes.
///
/// The environment variable `NSX_TRANSPORT` (`inproc` | `process`) sets the
/// default. Streams whose type has no wire identity
/// (`SampleStream::wire_id() == None`) always execute in-process regardless
/// of this choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportChoice {
    /// In-process execution: threads and channels (the default).
    #[default]
    Inproc,
    /// Worker processes over Unix-domain sockets.
    Process,
}

impl TransportChoice {
    /// Read the `NSX_TRANSPORT` selection from the environment (`Inproc`
    /// when unset). Panics naming the knob on a value
    /// [`parse`](Self::parse) rejects.
    pub fn from_env() -> Self {
        Self::from_setting(std::env::var("NSX_TRANSPORT").ok().as_deref())
    }

    /// [`from_env`](Self::from_env) over an already-read value.
    fn from_setting(value: Option<&str>) -> Self {
        value.map_or(TransportChoice::Inproc, |v| {
            Self::parse(v)
                .unwrap_or_else(|| panic!("invalid NSX_TRANSPORT='{v}': expected inproc|process"))
        })
    }

    /// Parse a selection string: `inproc` or `process`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "inproc" => Some(TransportChoice::Inproc),
            "process" => Some(TransportChoice::Process),
            _ => None,
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            TransportChoice::Inproc => "inproc",
            TransportChoice::Process => "process",
        }
    }
}

/// How much additional virtual time to spend when a stream must be extended.
///
/// Each extension multiplies a stream's accumulated time roughly by `growth`
/// (with a floor of `initial_dt`), so reaching a target precision costs
/// `O(log)` decision rounds while total sampling stays within a constant
/// factor of optimal — the same geometric schedule the paper's MW deployment
/// realises by letting simulations keep running between master decisions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingPolicy {
    /// Virtual duration of the first sample at any fresh point.
    pub initial_dt: f64,
    /// Multiplicative growth factor per extension (`> 1`).
    pub growth: f64,
}

impl Default for SamplingPolicy {
    fn default() -> Self {
        SamplingPolicy {
            initial_dt: 1.0,
            growth: 1.5,
        }
    }
}

impl SamplingPolicy {
    /// The next extension duration for a stream that has been sampled for
    /// total time `t`.
    #[inline]
    pub fn next_dt(&self, t: f64) -> f64 {
        (t * (self.growth - 1.0)).max(self.initial_dt)
    }

    /// Validate (`initial_dt > 0`, `growth > 1`).
    pub fn validate(&self) -> Result<(), String> {
        if self.initial_dt <= 0.0 || self.initial_dt.is_nan() {
            return Err(format!("initial_dt must be > 0, got {}", self.initial_dt));
        }
        if self.growth <= 1.0 || self.growth.is_nan() {
            return Err(format!("growth must be > 1, got {}", self.growth));
        }
        Ok(())
    }
}

/// What the engine does when a sampling stream ingests a non-finite value
/// (NaN or ±inf) — e.g. an objective that diverges, or a simulation that
/// blows up numerically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NonFinitePolicy {
    /// Quarantine (default): the stream pins the affected vertex's estimate
    /// to `+inf` with zero standard error, so it loses every ordering
    /// comparison and is replaced like any bad vertex. The event is recorded
    /// as [`RunNote::NonFiniteSample`](crate::result::RunNote) and counted
    /// under `eval.nonfinite`; the run continues.
    #[default]
    Quarantine,
    /// Stop the run at the next decision point with
    /// [`StopReason::NonFinite`](crate::termination::StopReason).
    FailFast,
}

/// What the engine does when a stream's online tail diagnostic crosses the
/// breakdown thresholds (DESIGN.md §14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakdownAction {
    /// No tail monitoring at all.
    Off,
    /// Record [`RunNote::NoiseSuspect`](crate::result::RunNote) and bump the
    /// `eval.tail.*` counters, but keep the configured estimator (default).
    #[default]
    Note,
    /// Additionally switch every stream's reporting estimator to the robust
    /// fallback for the rest of the run — graceful degradation in the same
    /// spirit as `DegradedToSerial` / `TransportDegraded`.
    SwitchRobust,
}

/// Breakdown-aware gating policy: when a stream's tail diagnostic
/// ([`SampleStream::tail_report`]) reports excess kurtosis or an outlier
/// fraction past these thresholds, the noise is no longer plausibly the
/// Gaussian the Welford gates were calibrated for.
///
/// Detection is deterministic: the diagnostic is a pure function of sample
/// values, so every backend and every resumed run flags the same round.
/// Defaults from the `NSX_BREAKDOWN` environment variable
/// (`off` | `note` | `auto`, each optionally with
/// `:kurt=<g2>:outliers=<frac>:min=<n>`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakdownPolicy {
    /// What crossing a threshold triggers.
    pub action: BreakdownAction,
    /// Samples a stream must have before its diagnostic is consulted
    /// (kurtosis estimates are wild below ~dozens of samples).
    pub min_samples: u64,
    /// Excess-kurtosis threshold (Gaussian noise has `g2 = 0`; Student-t
    /// with `ν = 5` already exceeds 4 in expectation... a diverging
    /// estimate is the signature of `ν ≤ 4`).
    pub kurtosis: f64,
    /// Outlier-fraction threshold (samples beyond six running standard
    /// deviations; Gaussian rate is ~2e-9).
    pub outlier_frac: f64,
}

impl Default for BreakdownPolicy {
    fn default() -> Self {
        BreakdownPolicy {
            action: BreakdownAction::Note,
            min_samples: 64,
            kurtosis: 4.0,
            outlier_frac: 0.01,
        }
    }
}

impl BreakdownPolicy {
    /// Whether a stream's tail report crosses the thresholds.
    pub fn crossed(&self, report: &TailReport) -> bool {
        if self.action == BreakdownAction::Off || report.n < self.min_samples {
            return false;
        }
        // NaN kurtosis (not yet estimable / zero variance) never fires.
        report.excess_kurtosis > self.kurtosis || report.outlier_frac > self.outlier_frac
    }

    /// Parse the `NSX_BREAKDOWN` grammar:
    /// `off` | `note` | `auto` `[:kurt=<g2>][:outliers=<frac>][:min=<n>]`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut parts = spec.split(':');
        let action = match parts.next().unwrap_or("").trim() {
            "off" => BreakdownAction::Off,
            "" | "note" => BreakdownAction::Note,
            "auto" | "switch" => BreakdownAction::SwitchRobust,
            other => return Err(format!("unknown breakdown action '{other}'")),
        };
        let mut p = BreakdownPolicy {
            action,
            ..BreakdownPolicy::default()
        };
        for part in parts {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got '{part}'"))?;
            match key.trim() {
                "kurt" => {
                    p.kurtosis = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("invalid kurt '{value}'"))?;
                }
                "outliers" => {
                    let f: f64 = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("invalid outliers '{value}'"))?;
                    if !(0.0..=1.0).contains(&f) {
                        return Err(format!("outliers must be in [0, 1], got {f}"));
                    }
                    p.outlier_frac = f;
                }
                "min" => {
                    p.min_samples = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("invalid min '{value}'"))?;
                }
                other => return Err(format!("unknown breakdown key '{other}'")),
            }
        }
        Ok(p)
    }

    /// Read `NSX_BREAKDOWN`, defaulting to [`BreakdownAction::Note`] with
    /// the default thresholds. Panics on an invalid spec.
    pub fn from_env() -> Self {
        match std::env::var("NSX_BREAKDOWN") {
            Ok(spec) => match Self::parse(&spec) {
                Ok(p) => p,
                Err(e) => panic!("invalid NSX_BREAKDOWN='{spec}': {e}"),
            },
            Err(_) => BreakdownPolicy::default(),
        }
    }
}

/// Configuration shared by every simplex-family algorithm.
#[derive(Debug, Clone)]
pub struct SimplexConfig {
    /// Nelder–Mead transformation coefficients.
    pub coefficients: Coefficients,
    /// Sampling-time schedule.
    pub sampling: SamplingPolicy,
    /// Continuous worker sampling (parallel mode only): while the master
    /// waits on a targeted comparison, every other active vertex/trial keeps
    /// sampling for the same wall-clock window at no extra parallel-time
    /// cost — exactly what the MW deployment's always-busy workers do
    /// (§3.1). DET disables this to stay the classic one-shot-evaluation
    /// algorithm.
    pub continuous: bool,
    /// Which backend executes each sampling round. Defaults from
    /// `NSX_BACKEND` (serial when unset); results are identical either way.
    pub backend: BackendChoice,
    /// Where sampling rounds physically execute: in this process (threads
    /// and channels) or on worker processes over Unix-domain sockets.
    /// Defaults from `NSX_TRANSPORT` (inproc when unset). `Process` takes
    /// precedence over [`backend`](Self::backend): the round fans out over
    /// the process pool (a `Threaded { workers: n > 0 }` choice sizes it).
    /// Results are bit-identical across transports.
    pub transport: TransportChoice,
    /// How a threaded backend re-dispatches work lost to worker failure
    /// (DESIGN.md §9). Ignored by the serial backend.
    pub retry: RetryPolicy,
    /// Programmatic fault injection for the threaded backend's worker pool
    /// (chaos testing). `None` defers to the `NSX_FAULTS` environment
    /// variable; `Some` forces a dedicated (non-shared) pool so the faults
    /// cannot leak into other runs.
    pub faults: Option<FaultPlan>,
    /// Worker-respawn budget override for the threaded backend's pool
    /// (DESIGN.md §9). `None` uses [`default_respawn_budget`]; `Some(0)`
    /// disables respawning, so losing every worker degrades the run to
    /// serial execution instead (recorded as
    /// [`RunNote::DegradedToSerial`](crate::result::RunNote)).
    pub respawn_budget: Option<u64>,
    /// Durable checkpointing: when set, the engine atomically snapshots the
    /// complete run state to [`CheckpointConfig::path`] every
    /// [`CheckpointConfig::every`] iterations, and
    /// [`Method::resume`](crate::algorithm::Method::resume) reconstructs
    /// the run bit-identically. Defaults from the `NSX_CHECKPOINT`
    /// environment variable (`path[:every=N][:keep=0|1]`), `None` when
    /// unset.
    pub checkpoint: Option<CheckpointConfig>,
    /// What to do when a stream ingests a non-finite sample.
    pub nonfinite: NonFinitePolicy,
    /// Which estimator the run's streams report through (DESIGN.md §14).
    /// Defaults from `NSX_ESTIMATOR` (Welford when unset). A non-Welford
    /// choice is applied to every stream the engine opens via
    /// `SampleStream::set_estimator`; Welford leaves streams exactly as the
    /// objective opened them (the bit-identical legacy path).
    pub estimator: EstimatorChoice,
    /// Breakdown-aware gating: tail monitoring thresholds and what crossing
    /// them does. Defaults from `NSX_BREAKDOWN` (note-only when unset).
    pub breakdown: BreakdownPolicy,
}

impl Default for SimplexConfig {
    fn default() -> Self {
        SimplexConfig {
            coefficients: Coefficients::default(),
            sampling: SamplingPolicy::default(),
            continuous: true,
            backend: BackendChoice::default(),
            transport: TransportChoice::from_env(),
            retry: RetryPolicy::default(),
            faults: None,
            respawn_budget: None,
            checkpoint: CheckpointConfig::from_env(),
            nonfinite: NonFinitePolicy::default(),
            estimator: EstimatorChoice::from_env(),
            breakdown: BreakdownPolicy::from_env(),
        }
    }
}

impl SimplexConfig {
    /// Whether this configuration demands a dedicated (non-shared) worker
    /// pool: an explicit fault plan, a respawn-budget override, or a
    /// non-default retry policy. Customized runs get their own pool so their
    /// chaos and retry behaviour cannot leak into — or starve — other runs
    /// sharing the process-wide pool; a multi-run scheduler uses the same
    /// predicate to keep such runs off the shared batch gate.
    pub fn customized(&self) -> bool {
        self.faults.is_some()
            || self.respawn_budget.is_some()
            || self.retry != RetryPolicy::default()
    }

    /// Check a fresh run's start: `init` must be `dim + 1` vertices of
    /// dimension `dim`, and the coefficients and sampling policy must
    /// validate.
    pub fn validate_start(&self, dim: usize, init: &[Vec<f64>]) -> Result<(), ConfigError> {
        if init.len() != dim + 1 {
            return Err(ConfigError::InitialSimplex(format!(
                "expected d+1 = {} vertices, got {}",
                dim + 1,
                init.len()
            )));
        }
        if let Some((i, v)) = init.iter().enumerate().find(|(_, v)| v.len() != dim) {
            return Err(ConfigError::InitialSimplex(format!(
                "vertex {i} has {} coordinates, expected d = {dim}",
                v.len()
            )));
        }
        self.coefficients
            .validate()
            .map_err(ConfigError::Coefficients)?;
        self.sampling.validate().map_err(ConfigError::Sampling)
    }

    /// Instantiate the sampling backend for this configuration.
    ///
    /// Like [`BackendChoice::build`], but honours the config's
    /// [`retry`](Self::retry) policy and [`faults`](Self::faults) plan: a
    /// non-default policy or an explicit plan forces a dedicated pool (the
    /// shared pool keeps its own defaults and `NSX_FAULTS`-driven
    /// injection).
    pub fn build_backend<S: SampleStream + 'static>(&self) -> Arc<dyn SamplingBackend<S>> {
        let customized = self.customized();
        if self.transport == TransportChoice::Process {
            // Process transport supersedes the in-process backends: the
            // round fans out over worker processes. An explicit
            // `Threaded { workers: n > 0 }` sizes the dedicated pool.
            let workers = match self.backend {
                BackendChoice::Threaded { workers } if workers > 0 => Some(workers),
                _ => None,
            };
            if workers.is_none() && !customized {
                return ProcessBackend::shared();
            }
            let n = workers.unwrap_or_else(default_process_workers);
            let faults = self.faults.clone().unwrap_or_else(FaultPlan::from_env);
            let budget = self
                .respawn_budget
                .unwrap_or_else(|| default_respawn_budget(n));
            return Arc::new(ProcessBackend::with_options(
                n, faults, self.retry, budget, None,
            ));
        }
        let BackendChoice::Threaded { workers } = self.backend else {
            return Arc::new(SerialBackend);
        };
        if workers == 0 && !customized {
            return ThreadedBackend::shared();
        }
        let n = if workers == 0 {
            default_workers()
        } else {
            workers
        };
        let faults = self.faults.clone().unwrap_or_else(FaultPlan::from_env);
        let budget = self
            .respawn_budget
            .unwrap_or_else(|| default_respawn_budget(n));
        Arc::new(ThreadedBackend::with_options(
            n, faults, self.retry, budget, None,
        ))
    }
}

/// Parameters of the max-noise algorithm (Algorithm 2).
#[derive(Debug, Clone, Copy)]
pub struct MnParams {
    /// The constant `k` in Eq. 2.3. The paper finds any small value in
    /// `[1, 5]` appropriate; `k` affects only convergence speed, not the
    /// outcome.
    pub k: f64,
}

impl Default for MnParams {
    fn default() -> Self {
        MnParams { k: 2.0 }
    }
}

/// Which of the seven PC decision sites use the noise-aware (error-bar)
/// comparison. `PcConditions::all()` is the strict "c1-7" variant; the
/// paper's ablations (Figs 3.8–3.17) toggle individual sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcConditions(pub [bool; 7]);

impl PcConditions {
    /// Error bars at every decision site (the strict "c1-7" variant).
    pub fn all() -> Self {
        PcConditions([true; 7])
    }

    /// Error bars at none of the sites (degenerates to DET comparisons).
    pub fn none() -> Self {
        PcConditions([false; 7])
    }

    /// Error bars only at the listed 1-based condition numbers.
    ///
    /// # Panics
    /// If any number is outside `1..=7`.
    pub fn only(conds: &[usize]) -> Self {
        let mut m = [false; 7];
        for &c in conds {
            assert!((1..=7).contains(&c), "condition numbers are 1..=7");
            m[c - 1] = true;
        }
        PcConditions(m)
    }

    /// Whether 1-based condition `c` uses the error-bar comparison.
    #[inline]
    pub fn uses_bars(&self, c: usize) -> bool {
        self.0[c - 1]
    }

    /// Short label like `"c136"` or `"c1-7"` for reports.
    pub fn label(&self) -> String {
        if self.0 == [true; 7] {
            return "c1-7".to_string();
        }
        if self.0 == [false; 7] {
            return "none".to_string();
        }
        let mut s = String::from("c");
        for (i, &b) in self.0.iter().enumerate() {
            if b {
                s.push_str(&(i + 1).to_string());
            }
        }
        s
    }
}

/// Parameters of the point-to-point comparison algorithm (Algorithm 3).
#[derive(Debug, Clone, Copy)]
pub struct PcParams {
    /// Confidence multiplier `k` (1 = one standard error, 2 = two; Fig 3.7).
    pub k: f64,
    /// Which decision sites use error bars.
    pub conditions: PcConditions,
}

impl Default for PcParams {
    fn default() -> Self {
        PcParams {
            k: 1.0,
            conditions: PcConditions::all(),
        }
    }
}

/// Parameters of the Anderson convergence criterion (Eq. 2.4):
/// `σ_i²(t_i) < k1 · 2^{−l(1+k2)} ∀i`.
#[derive(Debug, Clone, Copy)]
pub struct AndersonParams {
    /// Scale constant `k1` (the paper sweeps `2^0 … 2^30`).
    pub k1: f64,
    /// Exponent sharpening constant `k2` (the paper fixes `k2 = 0`).
    pub k2: f64,
}

impl Default for AndersonParams {
    fn default() -> Self {
        AndersonParams {
            k1: 2f64.powi(20),
            k2: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_policy_grows_geometrically() {
        let p = SamplingPolicy {
            initial_dt: 1.0,
            growth: 1.5,
        };
        assert_eq!(p.next_dt(0.0), 1.0);
        assert_eq!(p.next_dt(1.0), 1.0); // 0.5 floored to initial_dt
        assert_eq!(p.next_dt(10.0), 5.0);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn sampling_policy_validation() {
        assert!(SamplingPolicy {
            initial_dt: 0.0,
            growth: 1.5
        }
        .validate()
        .is_err());
        assert!(SamplingPolicy {
            initial_dt: 1.0,
            growth: 1.0
        }
        .validate()
        .is_err());
    }

    #[test]
    fn pc_conditions_subsets_and_labels() {
        let all = PcConditions::all();
        assert!(all.uses_bars(1) && all.uses_bars(7));
        assert_eq!(all.label(), "c1-7");
        let c136 = PcConditions::only(&[1, 3, 6]);
        assert!(c136.uses_bars(1) && c136.uses_bars(3) && c136.uses_bars(6));
        assert!(!c136.uses_bars(2) && !c136.uses_bars(7));
        assert_eq!(c136.label(), "c136");
        assert_eq!(PcConditions::none().label(), "none");
    }

    #[test]
    #[should_panic]
    fn pc_conditions_reject_out_of_range() {
        let _ = PcConditions::only(&[8]);
    }

    #[test]
    fn backend_choice_parses_selections() {
        assert_eq!(BackendChoice::parse("serial"), Some(BackendChoice::Serial));
        assert_eq!(
            BackendChoice::parse("threaded"),
            Some(BackendChoice::Threaded { workers: 0 })
        );
        assert_eq!(
            BackendChoice::parse("threaded:4"),
            Some(BackendChoice::Threaded { workers: 4 })
        );
        assert_eq!(BackendChoice::parse("frobnicate"), None);
        assert_eq!(BackendChoice::parse("threaded:x"), None);
        assert_eq!(BackendChoice::parse("threaded:0"), None);
        assert_eq!(BackendChoice::Serial.label(), "serial");
        assert_eq!(BackendChoice::Threaded { workers: 2 }.label(), "threaded");
    }

    #[test]
    fn backend_setting_is_serial_when_unset_and_parsed_when_set() {
        assert_eq!(BackendChoice::from_setting(None), BackendChoice::Serial);
        assert_eq!(
            BackendChoice::from_setting(Some("threaded:3")),
            BackendChoice::Threaded { workers: 3 }
        );
    }

    #[test]
    #[should_panic(
        expected = "invalid NSX_BACKEND='threaded:0': expected serial|threaded|threaded:<N> with N >= 1"
    )]
    fn zero_worker_backend_setting_panics_naming_the_knob_and_value() {
        BackendChoice::from_setting(Some("threaded:0"));
    }

    #[test]
    #[should_panic(expected = "invalid NSX_BACKEND='frobnicate'")]
    fn malformed_backend_setting_panics_naming_the_knob_and_value() {
        BackendChoice::from_setting(Some("frobnicate"));
    }

    #[test]
    fn transport_setting_is_inproc_when_unset_and_parsed_when_set() {
        assert_eq!(TransportChoice::from_setting(None), TransportChoice::Inproc);
        assert_eq!(
            TransportChoice::from_setting(Some("process")),
            TransportChoice::Process
        );
    }

    #[test]
    #[should_panic(expected = "invalid NSX_TRANSPORT='processes': expected inproc|process")]
    fn malformed_transport_setting_panics_naming_the_knob_and_value() {
        TransportChoice::from_setting(Some("processes"));
    }

    #[test]
    fn validate_start_names_each_spec_check() {
        let cfg = SimplexConfig::default();
        let init = vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0]];
        assert_eq!(cfg.validate_start(2, &init), Ok(()));
        assert!(matches!(
            cfg.validate_start(2, &init[..2]),
            Err(ConfigError::InitialSimplex(_))
        ));
        let ragged = vec![vec![0.0, 0.0], vec![1.0], vec![0.0, 1.0]];
        let err = cfg.validate_start(2, &ragged).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid initial simplex: vertex 1 has 1 coordinates, expected d = 2"
        );
        let mut bad = cfg.clone();
        bad.coefficients.gamma = 0.5;
        assert!(matches!(
            bad.validate_start(2, &init),
            Err(ConfigError::Coefficients(_))
        ));
        let mut bad = cfg;
        bad.sampling.growth = 1.0;
        assert!(matches!(
            bad.validate_start(2, &init),
            Err(ConfigError::Sampling(_))
        ));
    }

    #[test]
    fn backend_choice_builds_named_backends() {
        use stoch_eval::sampler::GaussianStream;
        let s = BackendChoice::Serial.build::<GaussianStream>();
        assert_eq!(s.name(), "serial");
        let t = BackendChoice::Threaded { workers: 2 }.build::<GaussianStream>();
        assert_eq!(t.name(), "threaded");
    }

    #[test]
    fn transport_choice_parses_selections() {
        assert_eq!(
            TransportChoice::parse("inproc"),
            Some(TransportChoice::Inproc)
        );
        assert_eq!(
            TransportChoice::parse("process"),
            Some(TransportChoice::Process)
        );
        assert_eq!(TransportChoice::parse("carrier-pigeon"), None);
        assert_eq!(TransportChoice::Inproc.label(), "inproc");
        assert_eq!(TransportChoice::Process.label(), "process");
    }

    #[test]
    fn process_transport_supersedes_backend_choice() {
        use stoch_eval::sampler::GaussianStream;
        let cfg = SimplexConfig {
            transport: TransportChoice::Process,
            backend: BackendChoice::Serial,
            ..SimplexConfig::default()
        };
        assert_eq!(cfg.build_backend::<GaussianStream>().name(), "process");
        let cfg = SimplexConfig {
            transport: TransportChoice::Inproc,
            backend: BackendChoice::Serial,
            ..SimplexConfig::default()
        };
        assert_eq!(cfg.build_backend::<GaussianStream>().name(), "serial");
    }

    #[test]
    fn breakdown_policy_parses_and_detects() {
        let p = BreakdownPolicy::parse("auto:kurt=6:outliers=0.02:min=32").unwrap();
        assert_eq!(p.action, BreakdownAction::SwitchRobust);
        assert_eq!(p.kurtosis, 6.0);
        assert_eq!(p.outlier_frac, 0.02);
        assert_eq!(p.min_samples, 32);
        assert_eq!(
            BreakdownPolicy::parse("off").unwrap().action,
            BreakdownAction::Off
        );
        assert!(BreakdownPolicy::parse("panic").is_err());
        assert!(BreakdownPolicy::parse("auto:outliers=3").is_err());

        let gaussian = TailReport {
            n: 1000,
            excess_kurtosis: 0.1,
            outlier_frac: 0.0,
        };
        let heavy = TailReport {
            n: 1000,
            excess_kurtosis: 25.0,
            outlier_frac: 0.04,
        };
        let young = TailReport {
            n: 10,
            excess_kurtosis: 50.0,
            outlier_frac: 0.5,
        };
        let nan = TailReport {
            n: 1000,
            excess_kurtosis: f64::NAN,
            outlier_frac: 0.0,
        };
        let p = BreakdownPolicy::default();
        assert!(!p.crossed(&gaussian));
        assert!(p.crossed(&heavy));
        assert!(!p.crossed(&young), "below min_samples must never fire");
        assert!(!p.crossed(&nan), "NaN kurtosis must never fire");
        let off = BreakdownPolicy {
            action: BreakdownAction::Off,
            ..p
        };
        assert!(!off.crossed(&heavy));
    }

    #[test]
    fn defaults_match_paper() {
        assert_eq!(MnParams::default().k, 2.0);
        let pc = PcParams::default();
        assert_eq!(pc.k, 1.0);
        assert_eq!(pc.conditions, PcConditions::all());
        assert_eq!(AndersonParams::default().k2, 0.0);
    }
}
