//! Core traits: deterministic objectives, stochastic objectives, and sampling
//! streams.
//!
//! Optimizers in the `noisy-simplex` crate never see raw function values;
//! they see [`Estimate`]s produced by [`SampleStream`]s, and may ask a stream
//! to keep sampling (`extend`) to shrink its standard error. This is the
//! contract that lets the same algorithm code drive an analytic test function
//! with synthetic Gaussian noise and a molecular-dynamics simulation whose
//! noise comes from genuine thermal sampling.

/// The result of sampling a point for some amount of virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Current running estimate of the objective value at the point.
    pub value: f64,
    /// Standard error of `value` (expected to shrink as `1/√t`).
    pub std_err: f64,
    /// Total virtual time the point has been sampled for.
    pub time: f64,
}

impl Estimate {
    /// An estimate with no uncertainty (used by deterministic evaluation).
    pub fn exact(value: f64) -> Self {
        Estimate {
            value,
            std_err: 0.0,
            time: 0.0,
        }
    }

    /// Lower edge of the `k`-standard-error confidence interval.
    #[inline]
    pub fn lo(&self, k: f64) -> f64 {
        self.value - k * self.std_err
    }

    /// Upper edge of the `k`-standard-error confidence interval.
    #[inline]
    pub fn hi(&self, k: f64) -> f64 {
        self.value + k * self.std_err
    }
}

/// An ongoing sampling computation at a fixed point in parameter space.
///
/// Implementations must guarantee *consistency*: extending a stream refines
/// the running estimate (variance strictly decreasing in expectation); it
/// must not redraw an independent value. See `DESIGN.md` §6.
///
/// Streams are `Send`: they own their state (including their RNG), so a
/// [`crate::backend::SamplingBackend`] may ship them to a worker thread for
/// extension and back. See `DESIGN.md` §8.
///
/// Streams are also `Clone`: a fault-tolerant backend keeps a master-side
/// copy of every stream it ships, so that when a worker is lost mid-job the
/// work can be re-issued from the copy. Because the clone carries the RNG
/// state, the re-issued extension reproduces the lost one bit for bit
/// (DESIGN.md §9).
/// Streams may additionally support *state persistence* (`save_state` /
/// `load_state`): serializing their complete state — RNG, cached variates,
/// sufficient statistics — so a checkpointed run can resume bit-identically.
/// The default implementations report [`CodecError::Unsupported`]; every
/// stream shipped in this workspace overrides them. See `DESIGN.md` §11.
///
/// [`CodecError::Unsupported`]: crate::codec::CodecError::Unsupported
pub trait SampleStream: Send + Clone {
    /// Advance sampling by virtual duration `dt > 0`.
    fn extend(&mut self, dt: f64);

    /// The current estimate (value, standard error, accumulated time).
    fn estimate(&self) -> Estimate;

    /// Serialize the complete stream state into `w` such that
    /// [`load_state`](Self::load_state) reconstructs a stream whose future
    /// behaviour is bit-identical to this one's.
    ///
    /// Default: unsupported (checkpointing degrades gracefully for streams
    /// that cannot persist).
    fn save_state(&self, _w: &mut crate::codec::Writer) -> Result<(), crate::codec::CodecError> {
        Err(crate::codec::CodecError::Unsupported {
            what: std::any::type_name::<Self>(),
        })
    }

    /// Reconstruct a stream from bytes written by
    /// [`save_state`](Self::save_state).
    fn load_state(_r: &mut crate::codec::Reader<'_>) -> Result<Self, crate::codec::CodecError>
    where
        Self: Sized,
    {
        Err(crate::codec::CodecError::Unsupported {
            what: std::any::type_name::<Self>(),
        })
    }

    /// Stable identifier naming this stream type on the wire, or `None` when
    /// the type is not wire-transferable.
    ///
    /// A multi-process sampling backend cannot ship closures; it ships
    /// [`save_state`](Self::save_state) bytes tagged with this identifier,
    /// and the worker process reconstructs the stream from a fixed registry
    /// keyed by it (DESIGN.md §12). The identifier is part of the wire
    /// format: bump it (e.g. `"gaussian.v2"`) whenever the `save_state`
    /// layout changes incompatibly. Streams that return `None` (the default)
    /// simply execute in-process — distribution degrades per stream type,
    /// never per run.
    fn wire_id() -> Option<&'static str>
    where
        Self: Sized,
    {
        None
    }

    /// Online tail diagnostic for breakdown-aware gating (DESIGN.md §14):
    /// the excess kurtosis and outlier fraction of the raw unit samples.
    /// Streams with no per-sample view (the oracle Gaussian accumulator)
    /// return `None` (the default) — no diagnostic, no false alarms.
    fn tail_report(&self) -> Option<crate::stats::TailReport> {
        None
    }

    /// Switch which estimator the stream *reports* through
    /// [`estimate`](Self::estimate). Default: ignored. Hostile-aware streams
    /// keep all sufficient statistics (Welford moments and block means) in
    /// parallel, so switching mid-run is loss-free and bit-deterministic —
    /// this is the mechanism behind breakdown auto-degradation.
    fn set_estimator(&mut self, _choice: crate::stats::EstimatorChoice) {}

    /// Number of non-finite (NaN/±Inf) raw samples the stream has quarantined
    /// at ingestion. Streams that quarantine report their estimate as `+inf`
    /// with zero standard error once this is non-zero, so a poisoned point
    /// loses every ordering comparison instead of corrupting vertex means
    /// (or panicking the ordering) silently. Default: `0` (no detection).
    fn nonfinite_samples(&self) -> u64 {
        0
    }
}

/// A deterministic multivariate objective `f: R^d -> R`.
pub trait Objective: Sync {
    /// Dimensionality `d` of the parameter space.
    fn dim(&self) -> usize;

    /// Evaluate the underlying (noise-free) function.
    fn value(&self, x: &[f64]) -> f64;

    /// Known global minimizer, if any (used by experiment measurement only).
    fn minimizer(&self) -> Option<Vec<f64>> {
        None
    }

    /// Known global minimum value, if any.
    fn minimum(&self) -> Option<f64> {
        None
    }
}

impl<T: Objective + ?Sized> Objective for &T {
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn value(&self, x: &[f64]) -> f64 {
        (**self).value(x)
    }
    fn minimizer(&self) -> Option<Vec<f64>> {
        (**self).minimizer()
    }
    fn minimum(&self) -> Option<f64> {
        (**self).minimum()
    }
}

/// An objective whose evaluation is a sampling process.
///
/// `open` starts a fresh sampling computation at `x`; the returned stream is
/// then driven by the optimizer. The `seed` makes streams reproducible and
/// independent across points.
pub trait StochasticObjective: Sync {
    /// The sampling-stream type produced at each point. The `'static` bound
    /// (with `Send` from [`SampleStream`]) lets backends move streams onto
    /// worker threads.
    type Stream: SampleStream + 'static;

    /// Dimensionality of the parameter space.
    fn dim(&self) -> usize;

    /// Begin sampling at point `x`.
    fn open(&self, x: &[f64], seed: u64) -> Self::Stream;

    /// The underlying noise-free value, when known analytically.
    ///
    /// Optimizers must never call this; it exists so experiment harnesses can
    /// measure the true error `R` of a result. Substrates where the truth is
    /// unknown (e.g. molecular dynamics) return `None`.
    fn true_value(&self, _x: &[f64]) -> Option<f64> {
        None
    }

    /// Unread: nothing consults this token and every objective in the
    /// workspace returns the default `None`. It is kept only because
    /// perfbench's timing wrappers forward it.
    fn pool_token(&self) -> Option<usize> {
        None
    }
}

impl<T: StochasticObjective + ?Sized> StochasticObjective for &T {
    type Stream = T::Stream;
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn open(&self, x: &[f64], seed: u64) -> Self::Stream {
        (**self).open(x, seed)
    }
    fn true_value(&self, x: &[f64]) -> Option<f64> {
        (**self).true_value(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_interval_edges() {
        let e = Estimate {
            value: 10.0,
            std_err: 2.0,
            time: 1.0,
        };
        assert_eq!(e.lo(1.0), 8.0);
        assert_eq!(e.hi(1.0), 12.0);
        assert_eq!(e.lo(2.0), 6.0);
        assert_eq!(e.hi(0.0), 10.0);
    }

    #[test]
    fn exact_estimate_has_zero_error() {
        let e = Estimate::exact(3.5);
        assert_eq!(e.value, 3.5);
        assert_eq!(e.std_err, 0.0);
        assert_eq!(e.lo(5.0), e.hi(5.0));
    }
}
