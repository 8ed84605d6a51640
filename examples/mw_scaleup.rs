//! Deploying the simplex on the MW master–worker hierarchy (§3.1, §3.4):
//! the library's DET with every sampling round fanned over d+3 worker
//! threads, and the processor-allocation arithmetic of Table 3.3.
//!
//! ```sh
//! cargo run --release --example mw_scaleup
//! ```

use mw_framework::Allocation;
use repro_bench::scaleup::scaleup_rosenbrock;

fn main() {
    println!("MW processor allocation (Table 3.3, Ns = 1):");
    println!(
        "{:>5} {:>8} {:>8} {:>8} {:>7}",
        "d", "workers", "servers", "clients", "total"
    );
    for d in [20usize, 50, 100] {
        let a = Allocation::new(d, 1);
        println!(
            "{:>5} {:>8} {:>8} {:>8} {:>7}",
            d,
            a.workers(),
            a.servers(),
            a.clients(),
            a.total()
        );
    }

    println!("\nscale-up runs (DET over d+3 worker threads, noisy Rosenbrock):");
    println!(
        "{:>5} {:>7} {:>14} {:>14} {:>12}",
        "d", "steps", "wall total s", "s per step", "final best"
    );
    for d in [20usize, 50, 100] {
        let res = scaleup_rosenbrock(d, 1, 0.5, 1.0, 300, 1e-9, 42 + d as u64);
        println!(
            "{:>5} {:>7} {:>14.4} {:>14.6} {:>12.3e}",
            d,
            res.steps,
            res.total_wall_secs,
            res.secs_per_step,
            res.trace.last().map(|p| p.best_value).unwrap_or(f64::NAN)
        );
    }
    println!("\nThe per-step cost grows faster than d: past d = 20 it is mostly the");
    println!("engine's Eq. 2.2 diameter, O(d^3) per step, not the paper's I/O (Fig 3.18c).");
}
