//! The classic Nelder–Mead iteration body (Algorithm 1) and the wait gate
//! that MN and the Anderson criterion put in front of it.
//!
//! DET, MN, and the Anderson-criterion variant share this body exactly — the
//! paper's Algorithms 1 and 2 differ only in the MN wait loop (line 4) — so
//! we implement it once. The PC family has different comparison structure
//! and lives in [`crate::pc`]. The loop driving this body (checkpoint →
//! stop check → gate → iteration) is [`crate::session::RunSession`].

use crate::engine::Engine;
use crate::geometry::{contract, expand, reflect};
use crate::termination::StopReason;
use crate::trace::StepKind;
use stoch_eval::objective::StochasticObjective;

/// Safety cap on gate/resample rounds within a single decision.
pub(crate) const MAX_WAIT_ROUNDS: u32 = 10_000;

/// The wait gate shared by MN (Algorithm 2 lines 4–6) and the Anderson
/// criterion (Eq. 2.4): extend every vertex until `passed` holds. Returns a
/// stop reason if a termination criterion fires mid-wait. Both criteria are
/// recorded under the MN gate metrics, since they play the same role.
pub(crate) async fn gate_wait<'a, F, P>(eng: &mut Engine<'a, F>, passed: P) -> Option<StopReason>
where
    F: StochasticObjective,
    P: Fn(&Engine<'a, F>) -> bool,
{
    let metrics = eng.metrics().cloned();
    let mut rounds = 0u32;
    loop {
        let passed = passed(eng);
        if let Some(m) = &metrics {
            m.mn_gate_checks.inc();
            if !passed {
                m.mn_gate_failures.inc();
            }
        }
        if passed {
            return None;
        }
        if let Some(r) = eng.should_stop() {
            return Some(r);
        }
        if rounds >= MAX_WAIT_ROUNDS {
            return Some(StopReason::Stalled);
        }
        let t0 = eng.elapsed();
        eng.extend_vertices().await;
        if let Some(m) = &metrics {
            m.mn_extension_rounds.inc();
            m.mn_equalize_time.add(eng.elapsed() - t0);
        }
        rounds += 1;
    }
}

/// One classic Nelder–Mead iteration: reflect, then expand / accept /
/// contract / collapse. Each freshly-opened trial slot gets one sampling
/// round before it is compared. Returns `Some(stop)` when the sampling
/// budget ran out mid-iteration, `None` after a completed (recorded) step.
///
/// The pre-iteration work — due checkpoints, termination checks, and the
/// algorithm's gate ([`gate_wait`]) — belongs to the caller; see
/// [`RunSession::step`](crate::session::RunSession::step).
pub(crate) async fn classic_iteration<F: StochasticObjective>(
    eng: &mut Engine<'_, F>,
) -> Option<StopReason> {
    let coeff = eng.config().coefficients;
    let ord = eng.ordering();
    let cent = eng.centroid_excluding(ord.max);

    // Reflection (Algorithm 1 line 3).
    let refl_x = reflect(&cent, eng.point(ord.max), coeff.alpha);
    let refl = eng.open_trial(refl_x);
    eng.extend_round(&[refl]).await;
    if let Some(r) = eng.budget_stop() {
        return Some(r);
    }

    let g_ref = eng.estimate(refl).value;
    if g_ref < eng.estimate(ord.min).value {
        // Expansion branch (lines 4–10).
        let exp_x = expand(&cent, eng.point(refl), coeff.gamma);
        let exp = eng.open_trial(exp_x);
        eng.extend_round(&[exp]).await;
        if eng.estimate(exp).value < eng.estimate(refl).value {
            eng.replace_vertex(ord.max, exp);
            eng.level_mut().on_expand();
            eng.drop_trials();
            eng.record(StepKind::Expand);
        } else {
            eng.replace_vertex(ord.max, refl);
            eng.drop_trials();
            eng.record(StepKind::Reflect);
        }
    } else if g_ref < eng.estimate(ord.max).value {
        // Plain reflection (lines 12–13; note the paper compares against
        // g(max), not the canonical g(smax)).
        eng.replace_vertex(ord.max, refl);
        eng.drop_trials();
        eng.record(StepKind::Reflect);
    } else {
        // Contraction branch (lines 15–23).
        let con_x = contract(&cent, eng.point(ord.max), coeff.beta);
        let con = eng.open_trial(con_x);
        eng.extend_round(&[con]).await;
        if eng.estimate(con).value < eng.estimate(ord.max).value {
            eng.replace_vertex(ord.max, con);
            eng.level_mut().on_contract();
            eng.drop_trials();
            eng.record(StepKind::Contract);
        } else {
            eng.drop_trials();
            eng.collapse(ord.min).await;
            eng.record(StepKind::Collapse);
        }
    }
    None
}

/// Internal variance of the `n` values `value(i)`: `mean_i (g_i − ḡ)²` —
/// the right-hand side of the MN gate (Eq. 2.3).
pub(crate) fn internal_variance(n: usize, value: impl Fn(usize) -> f64) -> f64 {
    let nf = n as f64;
    let mean = (0..n).map(&value).sum::<f64>() / nf;
    (0..n)
        .map(&value)
        .map(|v| (v - mean) * (v - mean))
        .sum::<f64>()
        / nf
}

/// Largest per-vertex noise variance `max_i σ_i²(t_i)` — the left-hand side
/// of the MN gate.
pub(crate) fn max_noise_variance<F: StochasticObjective>(eng: &Engine<F>) -> f64 {
    (0..eng.n_vertices())
        .map(|i| {
            let e = eng.estimate(i);
            e.std_err * e.std_err
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn internal_variance_matches_population_variance() {
        // values 1,2,3: mean 2, mean square dev = 2/3.
        let at = |values: [f64; 3]| move |i: usize| values[i];
        assert!((internal_variance(3, at([1.0, 2.0, 3.0])) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(internal_variance(3, at([5.0, 5.0, 5.0])), 0.0);
    }
}
