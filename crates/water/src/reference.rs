//! Reference data: experimental targets, published TIP4P results, and the
//! paper's Table 3.4 parameter sets.
//!
//! The paper fits against experimental data (Soper 2000 RDFs; standard
//! thermodynamic references \[73\]\[74\]). We encode the scalar targets
//! directly and provide smooth analytic fits of the experimental RDF
//! *shapes* (peak positions/heights of liquid water at 298 K) for the curve
//! figures — see `DESIGN.md`, substitutions.

/// Experimental target values (the `p0_i` of Eq. 3.4).
#[derive(Debug, Clone, Copy)]
pub struct Experiment;

impl Experiment {
    /// Self-diffusion coefficient of water at 298 K, in 1e−5 cm²/s.
    pub const D: f64 = 2.27;
    /// Cohesive (internal) energy, kJ/mol.
    pub const U: f64 = -41.5;
    /// Pressure at the experimental density, atm.
    pub const P: f64 = 1.0;
    /// RDF residual targets are identically zero (Eq. 3.5).
    pub const RDF_RESIDUAL: f64 = 0.0;

    /// Analytic fit of the experimental gOO(r) of liquid water at 298 K:
    /// excluded core, first peak ≈ 2.73 Å (height ≈ 2.8), first minimum
    /// ≈ 3.45 Å, second peak ≈ 4.5 Å.
    pub fn g_oo(r: f64) -> f64 {
        rdf_shape(
            r,
            2.55,
            0.07,
            &[
                (2.73, 1.85, 0.13),
                (3.45, -0.38, 0.40),
                (4.50, 0.18, 0.45),
                (6.7, 0.06, 0.6),
            ],
        )
    }

    /// Analytic fit of the experimental gOH(r) (intermolecular): hydrogen-
    /// bond peak ≈ 1.85 Å, second peak ≈ 3.3 Å.
    pub fn g_oh(r: f64) -> f64 {
        rdf_shape(
            r,
            1.55,
            0.06,
            &[
                (1.85, 0.6, 0.13),
                (2.45, -0.55, 0.30),
                (3.30, 0.5, 0.35),
                (5.0, -0.1, 0.6),
            ],
        )
    }

    /// Analytic fit of the experimental gHH(r): first peak ≈ 2.35 Å.
    pub fn g_hh(r: f64) -> f64 {
        rdf_shape(
            r,
            1.95,
            0.08,
            &[(2.35, 0.35, 0.18), (3.05, -0.25, 0.35), (3.85, 0.12, 0.45)],
        )
    }
}

/// Build a smooth RDF-like curve: a steep excluded-volume sigmoid times
/// `1 + Σ Gaussians(center, amplitude, width)`.
fn rdf_shape(r: f64, core: f64, core_w: f64, peaks: &[(f64, f64, f64)]) -> f64 {
    if r <= 0.0 {
        return 0.0;
    }
    let gate = 1.0 / (1.0 + (-(r - core) / core_w).exp());
    let mut g = 1.0;
    for &(c, a, w) in peaks {
        g += a * (-((r - c) * (r - c)) / (2.0 * w * w)).exp();
    }
    (gate * g).max(0.0)
}

/// Published TIP4P results at 298 K (paper Table 3.4 / §3.5).
#[derive(Debug, Clone, Copy)]
pub struct Tip4pPublished;

impl Tip4pPublished {
    /// Diffusion, 1e−5 cm²/s.
    pub const D: f64 = 3.29;
    /// Internal energy, kJ/mol.
    pub const U: f64 = -41.8;
    /// Pressure, atm.
    pub const P: f64 = 373.0;
}

/// Paper-reported final parameters `(ε kcal/mol, σ Å, q_H e)` per algorithm
/// (Table 3.4), for EXPERIMENTS.md comparison.
pub mod paper_final_params {
    /// MN result.
    pub const MN: [f64; 3] = [0.1514, 3.150, 0.520];
    /// PC result.
    pub const PC: [f64; 3] = [0.1470, 3.160, 0.523];
    /// PC+MN result.
    pub const PCMN: [f64; 3] = [0.1470, 3.162, 0.522];
    /// Published TIP4P.
    pub const TIP4P: [f64; 3] = [0.1550, 3.154, 0.520];
}

/// The paper's initial simplex (Table 3.4a): six poor/unphysical starting
/// vertices `(ε kcal/mol, σ Å, q_H e)`. The paper lists `d + 3 = 6` rows
/// (vertices plus the two trial vertices); a 3-d simplex uses the first
/// four. The ε column is converted from the dissertation's
/// `amu Å²/dfs²` units (1 kcal/mol ≈ 4.184e−6 of those units).
pub const INITIAL_VERTICES: [[f64; 3]; 6] = [
    [0.1697, 3.00, 0.54],
    [0.1552, 3.40, 0.45],
    [0.1312, 3.25, 0.52],
    [0.1625, 2.80, 0.60],
    [0.1312, 3.25, 0.60],
    [0.1625, 2.90, 0.65],
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experimental_goo_shape() {
        // Excluded core.
        assert!(Experiment::g_oo(1.0) < 0.01);
        assert!(Experiment::g_oo(2.0) < 0.05);
        // First peak near 2.73 Å, height between 2.3 and 3.2.
        let peak = Experiment::g_oo(2.73);
        assert!(peak > 2.3 && peak < 3.2, "peak {peak}");
        // First minimum below 1.
        assert!(Experiment::g_oo(3.45) < 1.0);
        // Long range → 1.
        assert!((Experiment::g_oo(9.0) - 1.0).abs() < 0.1);
    }

    #[test]
    fn experimental_goh_and_ghh_shapes() {
        assert!(Experiment::g_oh(1.85) > 1.3);
        assert!(Experiment::g_oh(1.2) < 0.05);
        assert!((Experiment::g_oh(9.0) - 1.0).abs() < 0.1);
        assert!(Experiment::g_hh(2.35) > 1.1);
        assert!(Experiment::g_hh(1.4) < 0.05);
        assert!((Experiment::g_hh(9.0) - 1.0).abs() < 0.1);
    }

    #[test]
    fn initial_vertices_are_poor_but_physical_magnitudes() {
        for v in INITIAL_VERTICES {
            assert!(v[0] > 0.05 && v[0] < 0.3, "epsilon {}", v[0]);
            assert!(v[1] > 2.5 && v[1] < 3.6, "sigma {}", v[1]);
            assert!(v[2] > 0.3 && v[2] < 0.8, "q_H {}", v[2]);
        }
    }

    #[test]
    fn rdf_shape_is_nonnegative_everywhere() {
        for i in 0..200 {
            let r = i as f64 * 0.05;
            assert!(Experiment::g_oo(r) >= 0.0);
            assert!(Experiment::g_oh(r) >= 0.0);
            assert!(Experiment::g_hh(r) >= 0.0);
        }
    }
}
