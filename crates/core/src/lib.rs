//! `noisy-simplex` — stochastic variants of the Nelder–Mead downhill simplex
//! for objective functions observed through sampling noise.
//!
//! This crate is the primary contribution of the reproduced paper (Chahal,
//! *Automated, Parallel Optimization Algorithms for Stochastic Functions*,
//! 2011): three simplex-family algorithms for noisy objectives plus the
//! baselines they are evaluated against.
//!
//! # Algorithms
//!
//! * [`Det`] — deterministic Nelder–Mead (Algorithm 1), the straw
//!   baseline that treats noisy observations as truth.
//! * [`MaxNoise`] — MN (Algorithm 2): gate every simplex move
//!   until the noisiest vertex is quiet relative to the simplex's internal
//!   value spread (Eq. 2.3).
//! * [`PointComparison`] — PC (Algorithm 3):
//!   confidence-interval comparisons at seven decision sites with targeted
//!   resampling of only the points involved.
//! * [`PcMn`] — PC+MN (Algorithm 4): both gates combined.
//! * [`AndersonNm`] — the Anderson et al. (2000)
//!   convergence criterion (Eq. 2.4) inside Nelder–Mead.
//! * [`baselines`] — SPSA, simulated annealing, and random search on the
//!   same sampling substrate (extensions).
//! * [`pso`] — particle swarm optimization and the PSO + stochastic-simplex
//!   hybrid the paper proposes as future work (§5.2).
//! * [`restart`] — multistart wrapper turning any local method into a
//!   global one (§1.3.5.1).
//!
//! The five simplex-family methods share one front door, the [`Method`]
//! trait: `run`/`resume` and their `_with_metrics` forms, written once over
//! a [`RunSession`].
//!
//! # Quick start
//!
//! ```
//! use noisy_simplex::prelude::*;
//! use stoch_eval::{ConstantNoise, Noisy, Rosenbrock};
//!
//! // Rosenbrock in 3-d observed through noise with sigma0 = 10.
//! let objective = Noisy::new(Rosenbrock::new(3), ConstantNoise(10.0));
//! let init = init::random_uniform(3, -6.0, 3.0, 42);
//! let term = Termination { tolerance: Some(1e-3), max_time: Some(1e5), max_iterations: Some(10_000) };
//! let result = PointComparison::new().run(&objective, init, term, TimeMode::Parallel, 7);
//! assert!(result.iterations > 0);
//! ```

#![warn(missing_docs)]

pub mod algorithm;
pub mod anderson;
pub mod baselines;
pub mod checkpoint;
pub(crate) mod classic;
pub mod compare;
pub mod config;
pub mod det;
pub mod engine;
pub mod geometry;
pub mod init;
pub mod metrics;
pub mod mn;
pub mod pc;
pub mod pcmn;
pub mod pso;
pub mod restart;
pub mod result;
pub mod session;
pub mod termination;
pub mod trace;

/// Convenient glob import for typical use.
pub mod prelude {
    pub use crate::algorithm::{Method, SimplexMethod};
    pub use crate::anderson::AndersonNm;
    pub use crate::baselines::{RandomSearch, SimulatedAnnealing, Spsa};
    pub use crate::checkpoint::{CheckpointConfig, CheckpointError, SnapshotInfo};
    pub use crate::config::{
        AndersonParams, BackendChoice, BreakdownAction, BreakdownPolicy, ConfigError, MnParams,
        NonFinitePolicy, PcConditions, PcParams, SamplingPolicy, SimplexConfig, TransportChoice,
    };
    pub use crate::det::Det;
    pub use crate::geometry::Coefficients;
    pub use crate::init;
    pub use crate::metrics::EngineMetrics;
    pub use crate::mn::MaxNoise;
    pub use crate::pc::PointComparison;
    pub use crate::pcmn::PcMn;
    pub use crate::pso::{Pso, PsoSimplex};
    pub use crate::restart::RestartedSimplex;
    pub use crate::result::{Measures, RunMetrics, RunNote, RunResult};
    pub use crate::session::{Driver, RunSession, SessionStatus};
    pub use crate::termination::{StopReason, Termination};
    pub use crate::trace::{StepKind, Trace, TracePoint};
    pub use mw_framework::{FaultPlan, RetryPolicy};
    pub use stoch_eval::clock::TimeMode;
}

pub use prelude::*;
