//! Seeded workload inputs. Everything a workload feeds the system is drawn
//! here from the `--seed` argument; the system sees only the results.

use noisy_simplex::config::{MnParams, PcConditions, PcParams};
use noisy_simplex::init;
use noisy_simplex::session::Driver;
use stoch_eval::rng::child_seed;

/// A counter-based generator: the `n`-th draw of stream `stream` under
/// `seed` is a pure function of the three, so decks never depend on the
/// order they are built in.
pub struct Gen {
    base: u64,
    n: u64,
}

impl Gen {
    pub fn new(seed: u64, stream: u64) -> Self {
        Gen {
            base: child_seed(seed, stream),
            n: 0,
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.n += 1;
        child_seed(self.base, self.n)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Which decision procedure a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    Mn,
    Pc,
    PcMn,
}

impl Algo {
    /// MN with k = 2, PC with k = 1 at all seven sites (c1–c7), or both.
    pub fn driver(self) -> Driver {
        let mn = MnParams { k: 2.0 };
        let pc = PcParams {
            k: 1.0,
            conditions: PcConditions::all(),
        };
        match self {
            Algo::Mn => Driver::Mn(mn),
            Algo::Pc => Driver::Pc(pc),
            Algo::PcMn => Driver::PcMn(mn, pc),
        }
    }
}

/// One run as the system receives it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunPlan {
    pub algo: Algo,
    pub init: Vec<Vec<f64>>,
    pub seed: u64,
    pub priority: i32,
    pub weight: f64,
}

/// `n` runs rotating MN, PC and PC+MN, each from its own simplex with every
/// coordinate uniform in `[lo, hi)`.
pub fn solo_deck(seed: u64, n: usize, d: usize, lo: f64, hi: f64) -> Vec<RunPlan> {
    let mut g = Gen::new(seed, 1);
    (0..n)
        .map(|i| RunPlan {
            algo: [Algo::Mn, Algo::Pc, Algo::PcMn][i % 3],
            init: init::random_uniform(d, lo, hi, g.next_u64()),
            seed: g.next_u64(),
            priority: 0,
            weight: 1.0,
        })
        .collect()
}

/// One open-loop arrival: the run and when it is due, in seconds from the
/// start of the pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    pub due_s: f64,
    pub plan: RunPlan,
}

/// Arrivals of MN runs at `rate` per second over `[0, horizon_s)`, in bursts
/// of `burst` runs due together, one burst per period at a seeded offset into
/// the first half of it; priorities in −2..=2 and weights in 1..=4.
pub fn arrivals(
    seed: u64,
    rate: f64,
    burst: usize,
    horizon_s: f64,
    d: usize,
    lo: f64,
    hi: f64,
) -> Vec<Arrival> {
    let mut g = Gen::new(seed, 2);
    let period = burst as f64 / rate;
    let mut out = Vec::new();
    for k in 0..(horizon_s / period) as usize {
        let t = (k as f64 + 0.5 * g.uniform()) * period;
        for _ in 0..burst {
            out.push(Arrival {
                due_s: t,
                plan: RunPlan {
                    algo: Algo::Mn,
                    init: init::random_uniform(d, lo, hi, g.next_u64()),
                    seed: g.next_u64(),
                    priority: (g.next_u64() % 5) as i32 - 2,
                    weight: 1.0 + (g.next_u64() % 4) as f64,
                },
            });
        }
    }
    out
}

/// `n` MN runs from `vertices`, each coordinate scaled by a factor uniform
/// in `[1 − jitter, 1 + jitter)`.
pub fn perturbed_deck(seed: u64, n: usize, vertices: &[[f64; 3]], jitter: f64) -> Vec<RunPlan> {
    let mut g = Gen::new(seed, 3);
    (0..n)
        .map(|_| RunPlan {
            algo: Algo::Mn,
            init: vertices
                .iter()
                .map(|v| {
                    v.iter()
                        .map(|&x| x * (1.0 + jitter * (2.0 * g.uniform() - 1.0)))
                        .collect()
                })
                .collect(),
            seed: g.next_u64(),
            priority: 0,
            weight: 1.0,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const V: [[f64; 3]; 2] = [[0.1697, 3.00, 0.54], [0.1552, 3.40, 0.45]];

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(
            solo_deck(7, 30, 4, -6.0, 3.0),
            solo_deck(7, 30, 4, -6.0, 3.0)
        );
        assert_eq!(
            arrivals(7, 50.0, 5, 2.0, 2, -4.0, 4.0),
            arrivals(7, 50.0, 5, 2.0, 2, -4.0, 4.0)
        );
        assert_eq!(
            perturbed_deck(7, 5, &V, 0.02),
            perturbed_deck(7, 5, &V, 0.02)
        );
    }

    #[test]
    fn different_seed_different_inputs() {
        assert_ne!(
            solo_deck(7, 30, 4, -6.0, 3.0),
            solo_deck(8, 30, 4, -6.0, 3.0)
        );
        let (a, b) = (
            arrivals(7, 50.0, 5, 2.0, 2, -4.0, 4.0),
            arrivals(8, 50.0, 5, 2.0, 2, -4.0, 4.0),
        );
        assert_ne!(a, b);
        assert_ne!(
            a.iter().map(|x| x.due_s).collect::<Vec<_>>(),
            b.iter().map(|x| x.due_s).collect::<Vec<_>>(),
            "the schedule itself must change, not only the runs"
        );
        assert_ne!(
            perturbed_deck(7, 5, &V, 0.02),
            perturbed_deck(8, 5, &V, 0.02)
        );
    }

    #[test]
    fn decks_have_the_promised_shape() {
        let deck = solo_deck(1, 9, 4, -6.0, 3.0);
        assert_eq!(deck[3].algo, Algo::Mn);
        assert_eq!(deck[4].algo, Algo::Pc);
        assert_eq!(deck[5].algo, Algo::PcMn);
        assert!(
            deck.iter()
                .all(|p| p.init.len() == 5
                    && p.init.iter().flatten().all(|x| (-6.0..3.0).contains(x)))
        );

        let arr = arrivals(1, 100.0, 4, 10.0, 2, -4.0, 4.0);
        assert_eq!(arr.len(), 1000);
        assert!(arr.len().is_multiple_of(4));
        assert!(arr
            .chunks(4)
            .all(|b| b.iter().all(|a| a.due_s == b[0].due_s)));
        assert!(arr.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        assert!(arr
            .iter()
            .all(|a| (-2..=2).contains(&a.plan.priority) && (1.0..=4.0).contains(&a.plan.weight)));

        for p in perturbed_deck(1, 4, &V, 0.02) {
            for (row, base) in p.init.iter().zip(&V) {
                for (x, b) in row.iter().zip(base) {
                    assert!((x / b - 1.0).abs() <= 0.02);
                }
            }
        }
    }
}
