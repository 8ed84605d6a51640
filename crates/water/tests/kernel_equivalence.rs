//! Property tests: every production kernel (today the cell list) must
//! reproduce the naive O(n²) force loop exactly (≤ 1e-10 relative) on
//! random periodic configurations — including boundary-straddling
//! molecules, stale-list reuse within the skin, and post-NPT box rescales.

use proptest::prelude::*;
use water_md::forces::{compute_forces, Forces};
use water_md::kernel::{ForceEngine, ForceKernel};
use water_md::npt::scale_box;
use water_md::system::System;
use water_md::vec3::Vec3;
use water_md::TIP4P;

const TOL: f64 = 1e-10;

/// The production kernels under test (the naive oracle is the reference).
const KERNELS: [ForceKernel; 1] = [ForceKernel::CellList];

fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1.0)
}

/// Maximum relative discrepancy across energy, virial, and every force
/// component of the two evaluations.
fn max_rel_err(a: &Forces, b: &Forces) -> f64 {
    let mut worst = rel(a.potential, b.potential).max(rel(a.virial, b.virial));
    assert_eq!(a.f.len(), b.f.len());
    for (fa, fb) in a.f.iter().zip(&b.f) {
        for (va, vb) in fa.iter().zip(fb) {
            worst = worst
                .max(rel(va.x, vb.x))
                .max(rel(va.y, vb.y))
                .max(rel(va.z, vb.z));
        }
    }
    worst
}

/// Translate every molecule rigidly by `shift` — positions are unwrapped,
/// so a large shift leaves many molecules straddling or far outside the
/// primary box and exercises the kernel's wrapping-on-bin path.
fn translate_all(sys: &mut System, shift: Vec3) {
    for m in &mut sys.molecules {
        for r in &mut m.r {
            *r += shift;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random configs (size, density, cutoff, rigid translation): every
    /// production kernel's forces/energy/virial match the naive oracle to
    /// 1e-10 relative.
    #[test]
    fn cell_list_matches_naive_on_random_configs(
        n in 8usize..=128,
        density in 0.6f64..1.3,
        rc_frac in 0.4f64..1.0,
        sx in -25.0f64..25.0,
        sy in -25.0f64..25.0,
        sz in -25.0f64..25.0,
    ) {
        let mut sys = System::lattice_count(TIP4P, n, density, 300.0, n as u64);
        translate_all(&mut sys, Vec3::new(sx, sy, sz));
        let rc = rc_frac * (sys.box_len / 2.0);
        prop_assume!(rc > 2.0); // below ~2 Å the model is unphysical anyway

        let naive = compute_forces(&sys, rc);
        for kernel in KERNELS {
            let mut engine = ForceEngine::new(kernel);
            let out = engine.compute(&sys, rc);
            let err = max_rel_err(&out, &naive);
            prop_assert!(
                err <= TOL,
                "{} vs naive diverged: max rel err {:.3e} (n={}, rc={:.2}, L={:.2})",
                kernel.name(), err, n, rc, sys.box_len
            );
        }
    }

    /// A list built once stays exact while every molecule drifts by less
    /// than skin/2, and stays exact after a drift large enough to force a
    /// rebuild — for every list-backed kernel.
    #[test]
    fn stale_list_reuse_within_skin_is_exact(
        n in 8usize..=64,
        density in 0.8f64..1.2,
        seed in 0u64..500,
        drift in 0.05f64..0.45,
        kernel_ix in 0usize..KERNELS.len(),
    ) {
        let kernel = KERNELS[kernel_ix];
        let skin = 1.0;
        let mut sys = System::lattice_count(TIP4P, n, density, 300.0, seed);
        let rc = (sys.box_len / 2.0).min(5.0);
        let mut engine = ForceEngine::with_skin(kernel, skin);
        engine.compute(&sys, rc); // build the list at the reference config

        // Per-molecule drifts below skin/2: the stale list must still cover
        // every interacting pair.
        for (i, m) in sys.molecules.iter_mut().enumerate() {
            let d = drift * Vec3::new(
                ((i * 7919 + 1) % 13) as f64 / 13.0 - 0.5,
                ((i * 104_729 + 5) % 11) as f64 / 11.0 - 0.5,
                ((i * 1_299_709 + 3) % 7) as f64 / 7.0 - 0.5,
            );
            for r in &mut m.r {
                *r += d;
            }
        }
        let reused = engine.compute(&sys, rc);
        prop_assert!(engine.stats().rebuilds == 1, "drift < skin/2 must reuse the list");
        let err = max_rel_err(&reused, &compute_forces(&sys, rc));
        prop_assert!(err <= TOL, "{} stale-list reuse diverged: {:.3e}", kernel.name(), err);

        // Now push one molecule past skin/2 — rebuild must trigger and the
        // fresh list must again match the oracle. A full-skin push keeps the
        // net displacement above skin/2 even if the earlier drift (≤ 0.225
        // per component) partially cancels it.
        for r in &mut sys.molecules[0].r {
            *r += Vec3::new(skin, 0.0, 0.0);
        }
        let rebuilt = engine.compute(&sys, rc);
        prop_assert!(engine.stats().rebuilds == 2, "drift > skin/2 must rebuild");
        let err = max_rel_err(&rebuilt, &compute_forces(&sys, rc));
        prop_assert!(err <= TOL, "{} post-rebuild diverged: {:.3e}", kernel.name(), err);
    }

    /// An NPT-style box rescale invalidates the cached geometry: with or
    /// without an explicit `invalidate()`, the next compute must match the
    /// naive oracle at the new box length — for every list-backed kernel.
    #[test]
    fn post_rescale_compute_matches_naive(
        n in 8usize..=64,
        density in 0.8f64..1.2,
        seed in 500u64..1_000,
        mu in 0.9f64..1.1,
        explicit in 0usize..2,
        kernel_ix in 0usize..KERNELS.len(),
    ) {
        let kernel = KERNELS[kernel_ix];
        let mut sys = System::lattice_count(TIP4P, n, density, 300.0, seed);
        let rc = (sys.box_len / 2.0).min(5.0);
        let mut engine = ForceEngine::new(kernel);
        engine.compute(&sys, rc);

        scale_box(&mut sys, mu);
        if explicit == 1 {
            engine.invalidate();
        }
        // rc must stay legal for the shrunk box.
        let rc = rc.min(sys.box_len / 2.0);
        let after = engine.compute(&sys, rc);
        let err = max_rel_err(&after, &compute_forces(&sys, rc));
        prop_assert!(
            err <= TOL,
            "{} post-rescale diverged (mu={:.3}, explicit={}): {:.3e}",
            kernel.name(), mu, explicit, err
        );
    }
}
