//! Velocity-Verlet integration with SHAKE/RATTLE rigid-body constraints and
//! a velocity-rescale thermostat.
//!
//! Each water molecule carries three holonomic constraints (two O–H bonds
//! and the H–H distance), keeping the TIP4P geometry exactly rigid. SHAKE
//! corrects positions after the drift step; RATTLE projects constraint-
//! violating components out of the velocities after the second half-kick.

use crate::forces::Forces;
use crate::kernel::ForceEngine;
use crate::system::{System, MASSES};
use crate::units::{KB, KCAL_ACC, KE_TO_KCAL};
use crate::vec3::Vec3;

/// SHAKE/RATTLE convergence tolerance (relative, on squared distances).
const SHAKE_TOL: f64 = 1e-10;
/// Maximum SHAKE/RATTLE sweeps per step.
const SHAKE_MAX_ITERS: usize = 500;

/// The three rigid constraints of a water molecule: site index pairs and
/// target distances.
fn constraints(sys: &System) -> [(usize, usize, f64); 3] {
    let d_oh = sys.model.r_oh;
    let d_hh = sys.model.r_hh();
    [(0, 1, d_oh), (0, 2, d_oh), (1, 2, d_hh)]
}

/// Apply SHAKE to one molecule: `r_new` is corrected onto the constraint
/// manifold using the pre-step geometry `r_old` as the reference direction;
/// velocities receive the matching correction.
fn shake(
    r_old: &[Vec3; 3],
    r_new: &mut [Vec3; 3],
    v: &mut [Vec3; 3],
    cons: &[(usize, usize, f64); 3],
    dt: f64,
) {
    for _ in 0..SHAKE_MAX_ITERS {
        let mut done = true;
        for &(i, j, d) in cons {
            let s = r_new[i] - r_new[j];
            let diff = s.norm_sq() - d * d;
            if diff.abs() > SHAKE_TOL * d * d {
                done = false;
                let ref_ij = r_old[i] - r_old[j];
                let inv_mi = 1.0 / MASSES[i];
                let inv_mj = 1.0 / MASSES[j];
                let denom = 2.0 * (inv_mi + inv_mj) * s.dot(ref_ij);
                let g = diff / denom;
                let corr = ref_ij * g;
                r_new[i] -= corr * inv_mi;
                r_new[j] += corr * inv_mj;
                v[i] -= corr * (inv_mi / dt);
                v[j] += corr * (inv_mj / dt);
            }
        }
        if done {
            return;
        }
    }
    panic!("SHAKE failed to converge — timestep too large?");
}

/// Apply RATTLE velocity constraints to one molecule.
fn rattle(r: &[Vec3; 3], v: &mut [Vec3; 3], cons: &[(usize, usize, f64); 3]) {
    for _ in 0..SHAKE_MAX_ITERS {
        let mut done = true;
        for &(i, j, d) in cons {
            let rij = r[i] - r[j];
            let vij = v[i] - v[j];
            let rv = rij.dot(vij);
            if rv.abs() > SHAKE_TOL * d * d {
                done = false;
                let inv_mi = 1.0 / MASSES[i];
                let inv_mj = 1.0 / MASSES[j];
                let k = rv / (d * d * (inv_mi + inv_mj));
                v[i] -= rij * (k * inv_mi);
                v[j] += rij * (k * inv_mj);
            }
        }
        if done {
            return;
        }
    }
    panic!("RATTLE failed to converge");
}

/// One velocity-Verlet step of length `dt` (fs). Takes the forces at the
/// current positions and returns the forces at the new positions (so force
/// evaluations are never repeated). Force evaluation goes through `engine`,
/// which owns the kernel selection and neighbor-list cache.
pub fn step(
    sys: &mut System,
    forces: &Forces,
    dt: f64,
    rc: f64,
    engine: &mut ForceEngine,
) -> Forces {
    let cons = constraints(sys);

    // First half-kick + drift, then SHAKE.
    for (mol, f) in sys.molecules.iter_mut().zip(&forces.f) {
        let r_old = mol.r;
        for s in 0..3 {
            mol.v[s] += f[s] * (0.5 * dt * KCAL_ACC / MASSES[s]);
            mol.r[s] += mol.v[s] * dt;
        }
        let (mut r_new, mut v) = (mol.r, mol.v);
        shake(&r_old, &mut r_new, &mut v, &cons, dt);
        mol.r = r_new;
        mol.v = v;
    }

    // New forces, second half-kick, then RATTLE.
    let new_forces = engine.compute(sys, rc);
    for (mol, f) in sys.molecules.iter_mut().zip(&new_forces.f) {
        for s in 0..3 {
            mol.v[s] += f[s] * (0.5 * dt * KCAL_ACC / MASSES[s]);
        }
        let (r, mut v) = (mol.r, mol.v);
        rattle(&r, &mut v, &cons);
        mol.v = v;
    }

    new_forces
}

/// Total kinetic energy, kcal/mol.
pub fn kinetic_energy(sys: &System) -> f64 {
    let mut ke = 0.0;
    for mol in &sys.molecules {
        for (v, m) in mol.v.iter().zip(&MASSES) {
            ke += 0.5 * m * v.norm_sq();
        }
    }
    ke * KE_TO_KCAL
}

/// Constrained degrees of freedom: `6N − 3` (each rigid molecule has 6,
/// minus the conserved total momentum).
pub fn degrees_of_freedom(sys: &System) -> usize {
    6 * sys.n_molecules() - 3
}

/// Instantaneous kinetic temperature, K.
pub fn temperature(sys: &System) -> f64 {
    2.0 * kinetic_energy(sys) / (degrees_of_freedom(sys) as f64 * KB)
}

/// Velocity-rescale thermostat: scale all velocities so the kinetic
/// temperature equals `target` exactly.
pub fn rescale_to(sys: &mut System, target: f64) {
    let t = temperature(sys);
    if t <= 0.0 {
        return;
    }
    let s = (target / t).sqrt();
    for mol in &mut sys.molecules {
        for v in &mut mol.v {
            *v = *v * s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TIP4P;

    fn engine() -> ForceEngine {
        // from_env so the CI kernel matrix exercises both paths here.
        ForceEngine::from_env()
    }

    fn small_system(seed: u64) -> System {
        // 27 molecules: rc = L/2 ≈ 4.65 Å, beyond the first coordination
        // shell, so cutoff artefacts stay small.
        System::lattice(TIP4P, 3, 0.997, 298.0, seed)
    }

    #[test]
    fn constraints_hold_over_many_steps() {
        let mut sys = small_system(1);
        let rc = sys.box_len / 2.0;
        let mut eng = engine();
        let mut f = eng.compute(&sys, rc);
        for _ in 0..200 {
            f = step(&mut sys, &f, 1.0, rc, &mut eng);
        }
        assert!(sys.constraints_satisfied(1e-6));
    }

    #[test]
    fn rattle_keeps_bond_velocities_orthogonal() {
        let mut sys = small_system(2);
        let rc = sys.box_len / 2.0;
        let mut eng = engine();
        let mut f = eng.compute(&sys, rc);
        for _ in 0..20 {
            f = step(&mut sys, &f, 1.0, rc, &mut eng);
        }
        for mol in &sys.molecules {
            let rij = mol.r[0] - mol.r[1];
            let vij = mol.v[0] - mol.v[1];
            assert!(rij.dot(vij).abs() < 1e-6);
        }
    }

    #[test]
    fn nve_energy_is_approximately_conserved() {
        let mut sys = small_system(3);
        let rc = sys.box_len / 2.0;
        // Short settle so the lattice overlaps relax, then measure drift.
        let mut eng = engine();
        let mut f = eng.compute(&sys, rc);
        for _ in 0..100 {
            f = step(&mut sys, &f, 0.5, rc, &mut eng);
            rescale_to(&mut sys, 298.0);
        }
        let e0 = f.potential + kinetic_energy(&sys);
        let mut e_min = e0;
        let mut e_max = e0;
        for _ in 0..400 {
            f = step(&mut sys, &f, 0.5, rc, &mut eng);
            let e = f.potential + kinetic_energy(&sys);
            e_min = e_min.min(e);
            e_max = e_max.max(e);
        }
        let scale = kinetic_energy(&sys).abs().max(1.0);
        let drift = (e_max - e_min) / scale;
        assert!(drift < 0.05, "energy drift {drift} too large");
    }

    #[test]
    fn momentum_is_conserved() {
        let mut sys = small_system(4);
        let rc = sys.box_len / 2.0;
        let p0 = sys.momentum();
        let mut eng = engine();
        let mut f = eng.compute(&sys, rc);
        for _ in 0..100 {
            f = step(&mut sys, &f, 1.0, rc, &mut eng);
        }
        assert!((sys.momentum() - p0).norm() < 1e-8);
    }

    #[test]
    fn thermostat_hits_target() {
        let mut sys = small_system(5);
        rescale_to(&mut sys, 350.0);
        assert!((temperature(&sys) - 350.0).abs() < 1e-9);
    }

    #[test]
    fn temperature_is_positive_and_sane_after_thermalize() {
        let sys = small_system(6);
        let t = temperature(&sys);
        // COM-only thermalization puts kBT/2 in 3 of 6 dof per molecule:
        // expect roughly half the target before equilibration.
        assert!(t > 50.0 && t < 600.0, "T = {t}");
    }
}
