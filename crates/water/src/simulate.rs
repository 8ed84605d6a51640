//! The two-phase simulation protocol of §3.5: NVT equilibration at 298 K
//! followed by an NVE production run from which the six fitted properties
//! are measured with error bars.

use crate::blocking::block_analysis;
use crate::integrate::{rescale_to, step, temperature};
use crate::kernel::{ForceEngine, ForceKernel};
use crate::model::WaterModel;
use crate::properties::{pressure_atm, MsdTracker, RdfAccumulator, RdfKind};
use crate::system::System;
use crate::units::KCAL_TO_KJ;
use stoch_eval::stats::Welford;

/// Simulation protocol parameters.
#[derive(Debug, Clone, Copy)]
pub struct MdConfig {
    /// Molecules per box edge (total `n_side³`).
    pub n_side: usize,
    /// Mass density, g/cm³.
    pub density: f64,
    /// Target temperature, K.
    pub temperature: f64,
    /// Timestep, fs.
    pub dt: f64,
    /// NVT equilibration steps.
    pub equil_steps: usize,
    /// NVE production steps.
    pub prod_steps: usize,
    /// Sample every this many production steps.
    pub sample_every: usize,
    /// RNG seed.
    pub seed: u64,
    /// Force evaluation path (default: `NSX_FORCE_KERNEL`, else cell-list).
    pub kernel: ForceKernel,
    /// O–O cutoff, Å. `None` uses the half-box convention; explicit values
    /// are clamped to `box_len / 2`.
    pub rc: Option<f64>,
}

impl Default for MdConfig {
    fn default() -> Self {
        MdConfig {
            n_side: 3,
            density: 0.997,
            temperature: 298.0,
            dt: 1.0,
            equil_steps: 500,
            prod_steps: 2_000,
            sample_every: 10,
            seed: 0,
            kernel: ForceKernel::from_env(),
            rc: None,
        }
    }
}

/// A measured property with its standard error of the mean.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// Mean value.
    pub mean: f64,
    /// Standard error of the mean.
    pub std_err: f64,
}

/// Everything measured in one production run.
#[derive(Debug, Clone)]
pub struct MdProperties {
    /// Potential energy per molecule, kJ/mol.
    pub energy_kj_mol: Measured,
    /// Pressure, atm.
    pub pressure_atm: Measured,
    /// Self-diffusion coefficient, cm²/s.
    pub diffusion_cm2_s: f64,
    /// Mean production temperature, K.
    pub temperature_k: f64,
    /// gOO(r): (r centers Å, g values).
    pub g_oo: (Vec<f64>, Vec<f64>),
    /// gOH(r).
    pub g_oh: (Vec<f64>, Vec<f64>),
    /// gHH(r).
    pub g_hh: (Vec<f64>, Vec<f64>),
    /// Total production time simulated, fs.
    pub production_fs: f64,
}

/// Run the full two-phase protocol for `model` under `cfg`.
pub fn run_md(model: WaterModel, cfg: &MdConfig) -> MdProperties {
    let mut sys = System::lattice(model, cfg.n_side, cfg.density, cfg.temperature, cfg.seed);
    let half_box = sys.box_len / 2.0;
    let rc = cfg.rc.map_or(half_box, |r| r.min(half_box));
    let mut engine = ForceEngine::new(cfg.kernel);

    // Phase 1: NVT equilibration with velocity rescaling.
    let mut f = engine.compute(&sys, rc);
    for i in 0..cfg.equil_steps {
        f = step(&mut sys, &f, cfg.dt, rc, &mut engine);
        if i % 5 == 0 {
            rescale_to(&mut sys, cfg.temperature);
        }
    }

    // Phase 2: NVE production with sampling.
    let rdf_max = sys.box_len / 2.0;
    let mut g_oo = RdfAccumulator::new(RdfKind::OO, rdf_max, 60);
    let mut g_oh = RdfAccumulator::new(RdfKind::OH, rdf_max, 60);
    let mut g_hh = RdfAccumulator::new(RdfKind::HH, rdf_max, 60);
    let mut msd = MsdTracker::new(&sys);
    let mut u_series = Vec::with_capacity(cfg.prod_steps / cfg.sample_every + 1);
    let mut p_series = Vec::with_capacity(cfg.prod_steps / cfg.sample_every + 1);
    let mut t_acc = Welford::new();

    for i in 1..=cfg.prod_steps {
        f = step(&mut sys, &f, cfg.dt, rc, &mut engine);
        if i % cfg.sample_every == 0 {
            let t_inst = temperature(&sys);
            u_series.push(f.potential / sys.n_molecules() as f64);
            p_series.push(pressure_atm(&sys, t_inst, f.virial));
            t_acc.push(t_inst);
            g_oo.sample(&sys);
            g_oh.sample(&sys);
            g_hh.sample(&sys);
            msd.sample(&sys, i as f64 * cfg.dt);
        }
    }

    // Honest error bars via block averaging: MD samples are correlated, so
    // the naive sigma/sqrt(n) would understate the noise the optimizers see.
    let measured = |series: &[f64]| -> Measured {
        match block_analysis(series) {
            Some(a) => Measured {
                mean: a.mean,
                std_err: a.std_err,
            },
            None => {
                let mut w = Welford::new();
                for &x in series {
                    w.push(x);
                }
                Measured {
                    mean: w.mean(),
                    std_err: if series.len() > 1 {
                        w.std_err()
                    } else {
                        f64::INFINITY
                    },
                }
            }
        }
    };
    let u_meas = measured(&u_series);
    let p_meas = measured(&p_series);

    MdProperties {
        energy_kj_mol: Measured {
            mean: u_meas.mean * KCAL_TO_KJ,
            std_err: u_meas.std_err * KCAL_TO_KJ,
        },
        pressure_atm: p_meas,
        diffusion_cm2_s: msd.diffusion_cm2_s(),
        temperature_k: t_acc.mean(),
        g_oo: g_oo.normalize(&sys),
        g_oh: g_oh.normalize(&sys),
        g_hh: g_hh.normalize(&sys),
        production_fs: cfg.prod_steps as f64 * cfg.dt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TIP4P;

    /// A deliberately tiny protocol so the test suite stays fast; physical
    /// accuracy is validated by the longer harness runs.
    fn tiny() -> MdConfig {
        MdConfig {
            n_side: 3,
            equil_steps: 300,
            prod_steps: 600,
            sample_every: 10,
            dt: 1.0,
            ..MdConfig::default()
        }
    }

    #[test]
    fn md_run_produces_liquid_like_observables() {
        // The diffusion fit needs the MSD window to clear the cage-rattling
        // regime (~1 ps for water): 600 fs of production gives a slope
        // dominated by in-cage oscillation that can come out negative, so
        // this test runs a longer production than `tiny()`.
        let p = run_md(
            TIP4P,
            &MdConfig {
                prod_steps: 1_500,
                ..tiny()
            },
        );
        // Cohesive energy: negative, within a loose liquid-water band
        // (small box + truncated electrostatics shift it, but the sign and
        // order of magnitude are robust).
        assert!(
            p.energy_kj_mol.mean < -5.0 && p.energy_kj_mol.mean > -80.0,
            "U = {} kJ/mol",
            p.energy_kj_mol.mean
        );
        assert!(p.energy_kj_mol.std_err > 0.0);
        // Temperature near target after equilibration.
        assert!(
            (p.temperature_k - 298.0).abs() < 80.0,
            "T = {}",
            p.temperature_k
        );
        // Diffusion: positive, within two orders of magnitude of 2.3e-5.
        assert!(
            p.diffusion_cm2_s > 1e-7 && p.diffusion_cm2_s < 1e-3,
            "D = {}",
            p.diffusion_cm2_s
        );
    }

    #[test]
    fn goo_shows_first_shell_structure() {
        let p = run_md(TIP4P, &tiny());
        let (rs, gs) = &p.g_oo;
        // Peak location: the first maximum of gOO should fall near 2.8 Å
        // (liquid water's first shell), certainly within [2.4, 3.4].
        let (peak_r, peak_g) = rs
            .iter()
            .zip(gs)
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(r, g)| (*r, *g))
            .unwrap();
        assert!(
            (2.2..=3.6).contains(&peak_r),
            "first gOO peak at {peak_r} Å"
        );
        assert!(peak_g > 1.3, "peak height {peak_g}");
        // Excluded volume: g ≈ 0 below 2.2 Å.
        let low: f64 = rs
            .iter()
            .zip(gs)
            .filter(|(r, _)| **r < 2.2)
            .map(|(_, g)| *g)
            .sum();
        assert!(low < 0.2, "g(r<2.2) = {low}");
    }

    #[test]
    fn md_is_reproducible_for_fixed_seed() {
        let a = run_md(TIP4P, &tiny());
        let b = run_md(TIP4P, &tiny());
        assert_eq!(a.energy_kj_mol.mean, b.energy_kj_mol.mean);
        assert_eq!(a.pressure_atm.mean, b.pressure_atm.mean);
    }
}
