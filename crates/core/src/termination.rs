//! Termination criteria (§2.4.1): function-spread tolerance (Eq. 2.9),
//! virtual-walltime limit, and an iteration-count safety cap.

/// Why an optimization run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// All observed vertex values within `tolerance` of the best (Eq. 2.9).
    Tolerance,
    /// Total virtual sampling time exceeded the limit.
    WallTime,
    /// Iteration cap reached.
    MaxIterations,
    /// The algorithm could not make further progress (e.g. a zero-noise
    /// resampling loop that can never decide a comparison).
    Stalled,
    /// The simplex collapsed below machine precision: its diameter fell
    /// under `ε · scale` (or became non-finite), so no further move can
    /// change the geometry. Under [`crate::restart::RestartedSimplex`] this
    /// triggers a fresh start like any other stop.
    Degenerate,
    /// A stream produced a non-finite sample and the run's
    /// [`crate::config::NonFinitePolicy`] is `FailFast`.
    NonFinite,
}

/// Combined termination criteria. Any satisfied criterion stops the run;
/// at least one bound should be finite or the run may not terminate on a
/// noisy objective.
#[derive(Debug, Clone, Copy)]
pub struct Termination {
    /// Eq. 2.9 spread tolerance `τ` on observed values (`None` disables).
    pub tolerance: Option<f64>,
    /// Virtual-walltime budget (`None` disables).
    pub max_time: Option<f64>,
    /// Maximum number of simplex iterations (`None` disables).
    pub max_iterations: Option<u64>,
}

impl Default for Termination {
    fn default() -> Self {
        Termination {
            tolerance: Some(1e-8),
            max_time: Some(1e6),
            max_iterations: Some(100_000),
        }
    }
}

impl Termination {
    /// A pure tolerance criterion with a generous safety cap.
    pub fn tolerance(tau: f64) -> Self {
        Termination {
            tolerance: Some(tau),
            max_time: None,
            max_iterations: Some(1_000_000),
        }
    }

    /// A pure walltime budget.
    pub fn wall_time(t: f64) -> Self {
        Termination {
            tolerance: None,
            max_time: Some(t),
            max_iterations: None,
        }
    }

    /// Check the Eq. 2.9 spread criterion against observed vertex values.
    pub fn spread_met(&self, values: &[f64]) -> bool {
        self.spread_met_by(values.len(), |i| values[i])
    }

    /// [`spread_met`](Self::spread_met) over `n` values read through
    /// `value(i)`, so a caller can test values where they live.
    pub fn spread_met_by(&self, n: usize, value: impl Fn(usize) -> f64) -> bool {
        match self.tolerance {
            None => false,
            Some(tau) => {
                let min = (0..n).map(&value).fold(f64::INFINITY, f64::min);
                (0..n).all(|i| (value(i) - min).abs() <= tau)
            }
        }
    }

    /// Check the non-spread criteria given elapsed virtual time and the
    /// completed iteration count.
    pub fn budget_exceeded(&self, elapsed: f64, iterations: u64) -> Option<StopReason> {
        if let Some(t) = self.max_time {
            if elapsed >= t {
                return Some(StopReason::WallTime);
            }
        }
        if let Some(n) = self.max_iterations {
            if iterations >= n {
                return Some(StopReason::MaxIterations);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_criterion_matches_eq_2_9() {
        let t = Termination::tolerance(0.5);
        assert!(t.spread_met(&[1.0, 1.2, 1.5]));
        assert!(!t.spread_met(&[1.0, 1.2, 1.6]));
    }

    #[test]
    fn disabled_tolerance_never_met() {
        let t = Termination::wall_time(10.0);
        assert!(!t.spread_met(&[1.0, 1.0]));
    }

    #[test]
    fn walltime_budget() {
        let t = Termination::wall_time(10.0);
        assert_eq!(t.budget_exceeded(9.9, 0), None);
        assert_eq!(t.budget_exceeded(10.0, 0), Some(StopReason::WallTime));
    }

    #[test]
    fn iteration_budget() {
        let t = Termination {
            tolerance: None,
            max_time: None,
            max_iterations: Some(5),
        };
        assert_eq!(t.budget_exceeded(1e12, 4), None);
        assert_eq!(t.budget_exceeded(0.0, 5), Some(StopReason::MaxIterations));
    }

    #[test]
    fn walltime_has_priority_over_iterations() {
        let t = Termination {
            tolerance: None,
            max_time: Some(1.0),
            max_iterations: Some(1),
        };
        assert_eq!(t.budget_exceeded(2.0, 2), Some(StopReason::WallTime));
    }
}
