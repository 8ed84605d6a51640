//! The run/resume front door shared by the simplex-family methods, and a
//! unified enum over them used by the experiment harness to sweep methods
//! homogeneously.
//!
//! Every method is a [`SimplexConfig`] plus the [`Driver`] its
//! [`RunSession`] runs per step; [`Method`] writes `run`, `resume` and
//! their metrics forms once over that pair.

use crate::anderson::AndersonNm;
use crate::checkpoint::{self, CheckpointError};
use crate::config::SimplexConfig;
use crate::det::Det;
use crate::metrics::EngineMetrics;
use crate::mn::MaxNoise;
use crate::pc::PointComparison;
use crate::pcmn::PcMn;
use crate::result::{RunNote, RunResult};
use crate::session::{Driver, RunSession};
use crate::termination::Termination;
use obs::MetricsRegistry;
use std::path::Path;
use stoch_eval::clock::TimeMode;
use stoch_eval::objective::StochasticObjective;

/// A simplex-family method: a configuration and the decision procedure a
/// [`RunSession`] runs each step. The provided methods are the one way to
/// run a method to completion or resume it from a checkpoint.
pub trait Method {
    /// Coefficients, sampling policy, backend and checkpoint settings.
    fn config(&self) -> &SimplexConfig;

    /// The decision procedure (gate and iteration body) the session runs.
    fn driver(&self) -> Driver;

    /// Optimize `objective` from the initial simplex `init`.
    fn run<F: StochasticObjective>(
        &self,
        objective: &F,
        init: Vec<Vec<f64>>,
        term: Termination,
        mode: TimeMode,
        seed: u64,
    ) -> RunResult {
        self.run_with_metrics(objective, init, term, mode, seed, None)
    }

    /// [`run`](Self::run) with optional run accounting: when `registry` is
    /// given, engine step/trial/round tallies, MN/Anderson gate statistics
    /// and PC per-site decision counters are recorded into it and
    /// summarized in [`RunResult::metrics`].
    fn run_with_metrics<F: StochasticObjective>(
        &self,
        objective: &F,
        init: Vec<Vec<f64>>,
        term: Termination,
        mode: TimeMode,
        seed: u64,
        registry: Option<&MetricsRegistry>,
    ) -> RunResult {
        let mut session = RunSession::new(
            objective,
            init,
            self.config().clone(),
            term,
            mode,
            seed,
            self.driver(),
        );
        if let Some(reg) = registry {
            session.attach_metrics(EngineMetrics::register(reg));
        }
        session.run_to_completion()
    }

    /// Resume a checkpointed run of this method from `path` (with `.1`
    /// retention fallback) and continue it to termination.
    ///
    /// The restored run is bit-identical to one that never stopped: same
    /// best point, values, iteration counts, trace, and accounting. Every
    /// gate is a pure function of the persisted state (the vertex estimates
    /// and contraction level), so the run re-enters its loop exactly where
    /// the original would have been. `term_override` replaces the persisted
    /// termination criteria (pass the full-run criteria when resuming a
    /// deliberately truncated run); `None` keeps what was persisted.
    fn resume<F: StochasticObjective>(
        &self,
        objective: &F,
        path: &Path,
        term_override: Option<Termination>,
    ) -> Result<RunResult, CheckpointError> {
        self.resume_with_metrics(objective, path, term_override, None)
    }

    /// [`resume`](Self::resume) with optional run accounting. Persisted
    /// accounting is replayed into `registry` first, so the final summary
    /// matches an uninterrupted run's.
    fn resume_with_metrics<F: StochasticObjective>(
        &self,
        objective: &F,
        path: &Path,
        term_override: Option<Termination>,
        registry: Option<&MetricsRegistry>,
    ) -> Result<RunResult, CheckpointError> {
        let (payload, from) = checkpoint::load_with_fallback(path)?;
        let mut session = RunSession::resume(
            objective,
            self.config().clone(),
            &payload,
            term_override,
            self.driver(),
        )?;
        if from != path {
            session.record_note(RunNote::CheckpointFellBack);
        }
        if let Some(reg) = registry {
            session.attach_metrics(EngineMetrics::register(reg));
        }
        Ok(session.run_to_completion())
    }
}

/// Any of the five simplex-family methods the paper studies.
#[derive(Debug, Clone)]
pub enum SimplexMethod {
    /// Deterministic Nelder–Mead (Algorithm 1).
    Det(Det),
    /// Max-noise (Algorithm 2).
    Mn(MaxNoise),
    /// Point-to-point comparison (Algorithm 3).
    Pc(PointComparison),
    /// Combined PC+MN (Algorithm 4).
    PcMn(PcMn),
    /// Nelder–Mead with the Anderson criterion (Eq. 2.4).
    Anderson(AndersonNm),
}

impl SimplexMethod {
    /// Short method name for reports ("DET", "MN", "PC", "PC+MN",
    /// "Anderson").
    pub fn name(&self) -> String {
        match self {
            SimplexMethod::Det(_) => "DET".into(),
            SimplexMethod::Mn(m) => format!("MN(k={})", m.params.k),
            SimplexMethod::Pc(p) => {
                format!("PC(k={},{})", p.params.k, p.params.conditions.label())
            }
            SimplexMethod::PcMn(_) => "PC+MN".into(),
            SimplexMethod::Anderson(a) => format!("Anderson(k1=2^{:.0})", a.params.k1.log2()),
        }
    }

    /// The wrapped method's configuration and driver.
    fn parts(&self) -> (&SimplexConfig, Driver) {
        match self {
            SimplexMethod::Det(m) => (&m.cfg, m.driver()),
            SimplexMethod::Mn(m) => (&m.cfg, m.driver()),
            SimplexMethod::Pc(m) => (&m.cfg, m.driver()),
            SimplexMethod::PcMn(m) => (&m.cfg, m.driver()),
            SimplexMethod::Anderson(m) => (&m.cfg, m.driver()),
        }
    }
}

impl Method for SimplexMethod {
    fn config(&self) -> &SimplexConfig {
        self.parts().0
    }

    fn driver(&self) -> Driver {
        self.parts().1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::random_uniform;
    use stoch_eval::functions::Sphere;
    use stoch_eval::noise::ConstantNoise;
    use stoch_eval::sampler::Noisy;

    #[test]
    fn all_methods_run_through_the_enum() {
        let obj = Noisy::new(Sphere::new(2), ConstantNoise(1.0));
        let term = Termination {
            tolerance: Some(1e-2),
            max_time: Some(1e4),
            max_iterations: Some(200),
        };
        let methods = [
            SimplexMethod::Det(Det::new()),
            SimplexMethod::Mn(MaxNoise::with_k(2.0)),
            SimplexMethod::Pc(PointComparison::new()),
            SimplexMethod::PcMn(PcMn::new()),
            SimplexMethod::Anderson(AndersonNm::with_k1(1024.0)),
        ];
        for (i, m) in methods.iter().enumerate() {
            let init = random_uniform(2, -3.0, 3.0, 100 + i as u64);
            let res = m.run(&obj, init, term, TimeMode::Parallel, i as u64);
            assert!(res.iterations > 0, "{} made no iterations", m.name());
        }
    }

    #[test]
    fn names_are_distinct() {
        let names: Vec<String> = [
            SimplexMethod::Det(Det::new()),
            SimplexMethod::Mn(MaxNoise::with_k(2.0)),
            SimplexMethod::Pc(PointComparison::new()),
            SimplexMethod::PcMn(PcMn::new()),
            SimplexMethod::Anderson(AndersonNm::with_k1(1024.0)),
        ]
        .iter()
        .map(|m| m.name())
        .collect();
        let mut uniq = names.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), names.len());
    }
}
