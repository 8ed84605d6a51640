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

/// Inverse-mass coupling between the three constraints: `m[k][l]` scales
/// how a correction along constraint `l` (site `i_l` moved by `−c/m_i`, site
/// `j_l` by `+c/m_j`) changes bond `k`'s vector, `Δs_k = −Σ_l m[k][l]·c_l`.
fn coupling(cons: &[(usize, usize, f64); 3]) -> [[f64; 3]; 3] {
    // +1 if site `a` is the `i` end of `con`, −1 if its `j` end, else 0.
    let side = |a: usize, (i, j, _): (usize, usize, f64)| f64::from(a == i) - f64::from(a == j);
    let mut m = [[0.0; 3]; 3];
    for (row, &(i, j, _)) in m.iter_mut().zip(cons) {
        for (m_kl, &con) in row.iter_mut().zip(cons) {
            *m_kl = side(i, con) / MASSES[i] - side(j, con) / MASSES[j];
        }
    }
    m
}

/// The per-constraint convergence test shared by SHAKE and RATTLE.
fn converged(residuals: [f64; 3], cons: &[(usize, usize, f64); 3]) -> bool {
    residuals
        .iter()
        .zip(cons)
        .all(|(r, &(_, _, d))| r.abs() <= SHAKE_TOL * d * d)
}

/// Solve the 3×3 system `Σ_l a(k, l)·x_l = b_k` by Cramer's rule, each
/// determinant a triple product of columns. `None` if the system is
/// singular (a collinear molecule) or not finite.
fn solve3(a: impl Fn(usize, usize) -> f64, b: [f64; 3]) -> Option<[f64; 3]> {
    let col = |l| Vec3::new(a(0, l), a(1, l), a(2, l));
    let (c0, c1, c2) = (col(0), col(1), col(2));
    let b = Vec3::new(b[0], b[1], b[2]);
    let (x0, x1, x2) = (c1.cross(c2), c2.cross(c0), c0.cross(c1));
    let det = c0.dot(x0);
    if !det.is_normal() {
        return None;
    }
    Some([b.dot(x0) / det, b.dot(x1) / det, b.dot(x2) / det])
}

/// Apply SHAKE to one molecule: `r_new` is corrected onto the constraint
/// manifold along the pre-step bond vectors of `r_old`; velocities receive
/// the matching correction. Returns the number of sweeps used, counting the
/// final sweep that finds every constraint within tolerance.
///
/// Each sweep is one Newton step on all three multipliers at once (M-SHAKE):
/// with `s_k` the current bond vectors and `R_l` the reference ones, moving
/// along `R_l` by `g_l` changes `σ_k = |s_k|² − d_k²` at the rate
/// `J_kl = 2·m_kl·(s_k·R_l)`, so `J·g = σ` zeroes the linearized residuals.
/// The positions are linear in `g`, so this is exact Newton and converges
/// quadratically; fixing one constraint at a time would undo the others
/// through their shared atoms and converge only linearly.
fn shake(
    r_old: &[Vec3; 3],
    r_new: &mut [Vec3; 3],
    v: &mut [Vec3; 3],
    cons: &[(usize, usize, f64); 3],
    dt: f64,
) -> usize {
    let m = coupling(cons);
    let refs = cons.map(|(i, j, _)| r_old[i] - r_old[j]);
    for sweep in 1..=SHAKE_MAX_ITERS {
        let s = cons.map(|(i, j, _)| r_new[i] - r_new[j]);
        let sigma = std::array::from_fn(|k| s[k].norm_sq() - cons[k].2 * cons[k].2);
        if converged(sigma, cons) {
            return sweep;
        }
        let Some(g) = solve3(|k, l| 2.0 * m[k][l] * s[k].dot(refs[l]), sigma) else {
            break;
        };
        for ((&(i, j, _), &ref_ij), g) in cons.iter().zip(&refs).zip(g) {
            let corr = ref_ij * g;
            let inv_mi = 1.0 / MASSES[i];
            let inv_mj = 1.0 / MASSES[j];
            r_new[i] -= corr * inv_mi;
            r_new[j] += corr * inv_mj;
            v[i] -= corr * (inv_mi / dt);
            v[j] += corr * (inv_mj / dt);
        }
    }
    panic!("SHAKE failed to converge — timestep too large?");
}

/// Apply RATTLE velocity constraints to one molecule. Returns the number of
/// sweeps used, counting the final check.
///
/// The conditions `r_k·v_k = 0` are linear in the multipliers, so one solve
/// of `A·κ = b` with `A_kl = m_kl·(r_k·r_l)` and `b_k = r_k·v_k` is exact: two
/// sweeps (solve, then check) for any molecule not already satisfied.
fn rattle(r: &[Vec3; 3], v: &mut [Vec3; 3], cons: &[(usize, usize, f64); 3]) -> usize {
    let m = coupling(cons);
    let bonds = cons.map(|(i, j, _)| r[i] - r[j]);
    for sweep in 1..=SHAKE_MAX_ITERS {
        let b = std::array::from_fn(|k| {
            let (i, j, _) = cons[k];
            bonds[k].dot(v[i] - v[j])
        });
        if converged(b, cons) {
            return sweep;
        }
        let Some(kappa) = solve3(|k, l| m[k][l] * bonds[k].dot(bonds[l]), b) else {
            break;
        };
        for ((&(i, j, _), &rij), k) in cons.iter().zip(&bonds).zip(kappa) {
            v[i] -= rij * (k / MASSES[i]);
            v[j] += rij * (k / MASSES[j]);
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
    step_counting_sweeps(sys, forces, dt, rc, engine).0
}

/// [`step`], also returning the SHAKE and RATTLE sweeps summed over all
/// molecules.
fn step_counting_sweeps(
    sys: &mut System,
    forces: &Forces,
    dt: f64,
    rc: f64,
    engine: &mut ForceEngine,
) -> (Forces, usize, usize) {
    let cons = constraints(sys);

    // First half-kick + drift, then SHAKE.
    let mut shake_sweeps = 0;
    for (mol, f) in sys.molecules.iter_mut().zip(&forces.f) {
        let r_old = mol.r;
        for s in 0..3 {
            mol.v[s] += f[s] * (0.5 * dt * KCAL_ACC / MASSES[s]);
            mol.r[s] += mol.v[s] * dt;
        }
        let (mut r_new, mut v) = (mol.r, mol.v);
        shake_sweeps += shake(&r_old, &mut r_new, &mut v, &cons, dt);
        mol.r = r_new;
        mol.v = v;
    }

    // New forces, second half-kick, then RATTLE.
    let new_forces = engine.compute(sys, rc);
    let mut rattle_sweeps = 0;
    for (mol, f) in sys.molecules.iter_mut().zip(&new_forces.f) {
        for s in 0..3 {
            mol.v[s] += f[s] * (0.5 * dt * KCAL_ACC / MASSES[s]);
        }
        let (r, mut v) = (mol.r, mol.v);
        rattle_sweeps += rattle(&r, &mut v, &cons);
        mol.v = v;
    }

    (new_forces, shake_sweeps, rattle_sweeps)
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
            for (i, j, _) in constraints(&sys) {
                let rij = mol.r[i] - mol.r[j];
                let vij = mol.v[i] - mol.v[j];
                assert!(rij.dot(vij).abs() < 1e-6, "bond {i}-{j}");
            }
        }
    }

    #[test]
    fn constraint_solvers_converge_in_a_few_sweeps() {
        // Newton SHAKE converges quadratically and RATTLE is one exact
        // linear solve; Gauss–Seidel sweeps took ~33 and ~32 here.
        let mut sys = small_system(7);
        let rc = sys.box_len / 2.0;
        let mut eng = engine();
        let mut f = eng.compute(&sys, rc);
        let steps = 200;
        let (mut shake_sweeps, mut rattle_sweeps) = (0, 0);
        for _ in 0..steps {
            let (nf, s, r) = step_counting_sweeps(&mut sys, &f, 1.0, rc, &mut eng);
            f = nf;
            shake_sweeps += s;
            rattle_sweeps += r;
        }
        let mol_steps = (steps * sys.n_molecules()) as f64;
        let shake_mean = shake_sweeps as f64 / mol_steps;
        let rattle_mean = rattle_sweeps as f64 / mol_steps;
        assert!(shake_mean <= 4.0, "SHAKE mean sweeps {shake_mean}");
        assert!(rattle_mean <= 2.0, "RATTLE mean sweeps {rattle_mean}");
    }

    #[test]
    fn shake_restores_a_displaced_molecule() {
        let sys = small_system(8);
        let cons = constraints(&sys);
        let dt = 1.0;
        let r_old = sys.molecules[0].r;
        // A drift much larger than one step's: 0.05 Å on every site in
        // different directions, so all three constraints are violated.
        let mut r_new = r_old;
        r_new[0] += Vec3::new(0.05, -0.02, 0.03);
        r_new[1] += Vec3::new(-0.04, 0.05, 0.01);
        r_new[2] += Vec3::new(0.02, 0.03, -0.05);
        let mut v = sys.molecules[0].v;
        let (r_drift, v_drift) = (r_new, v);
        let sweeps = shake(&r_old, &mut r_new, &mut v, &cons, dt);
        assert!(sweeps > 1 && sweeps < 10, "{sweeps} sweeps");
        for (i, j, d) in cons {
            let diff = (r_new[i] - r_new[j]).norm_sq() - d * d;
            assert!(diff.abs() <= SHAKE_TOL * d * d, "bond {i}-{j}: {diff:e}");
        }
        // Velocities carry exactly the position correction over dt.
        for s in 0..3 {
            let dv = (v[s] - v_drift[s]) - (r_new[s] - r_drift[s]) / dt;
            assert!(dv.norm() < 1e-12, "site {s}");
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
