//! Fig 3.18 — MW scale-up: the library's DET over d+3 worker threads on
//! noisy Rosenbrock in d ∈ {20, 50, 100} dimensions (Ns = 1):
//!
//! (a) best value vs wall time, (b) best value vs steps, (c) wall time per
//! simplex step vs dimension. The paper's expectation: more dimensions →
//! more steps and time to converge, with only a minor per-step overhead
//! growth (its I/O). Here a step is the library's: dispatch plus the
//! engine's decision logic, whose Eq. 2.2 diameter is O(d³) per step.

use repro_bench::scaleup::scaleup_rosenbrock_with_metrics;
use repro_bench::{csv_row, harness_args, scaleup_steps};

fn main() {
    let args = harness_args();
    let registry = args.registry();
    println!("# Fig 3.18: MW scale-up, DET on Rosenbrock, Ns=1");
    let steps = scaleup_steps();

    csv_row(
        &["d", "step", "wall_secs", "best_value"]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
    );
    let mut per_step = Vec::new();
    for d in [20usize, 50, 100] {
        let res = scaleup_rosenbrock_with_metrics(
            d,
            1,
            0.5,
            1.0,
            steps,
            1e-9,
            42 + d as u64,
            registry.as_ref(),
        );
        let stride = (res.trace.len() / 80).max(1);
        for p in res.trace.iter().step_by(stride) {
            csv_row(&[
                d.to_string(),
                p.step.to_string(),
                format!("{:.5}", p.wall_secs),
                format!("{:.6e}", p.best_value),
            ]);
        }
        per_step.push((d, res.alloc, res.steps, res.secs_per_step));
    }

    println!("\n# Panel (c): time per simplex step vs dimension");
    csv_row(
        &["d", "total_cores", "steps", "secs_per_step"]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
    );
    for (d, alloc, steps, sps) in per_step {
        csv_row(&[
            d.to_string(),
            alloc.total().to_string(),
            steps.to_string(),
            format!("{sps:.6}"),
        ]);
    }
    args.write_metrics(registry.as_ref());
}
